//! The traced run: spans around calls into every layer, with the
//! workload's inputs, reduced to per-layer metrics.
//!
//! Each metric is printed with its raw samples; `run.py` reports their
//! median. Cheap calls are timed in batches (a span covers `calls` calls)
//! so reading the clock costs little against the work. Counts marked
//! `exact` are deterministic for a given seed and compare exactly across
//! commits.

use crate::json::J;
use crate::trace::Tracer;
use crate::work::{self, Iteration, Workload, CONTENTION, JOBS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use wavelan_analysis::json::to_string_pretty;
use wavelan_analysis::{analyze, RunDocument, StreamAnalysis};
use wavelan_core::experiments::common::expected_series;
use wavelan_core::{find, registry_spec_hashes, Executor, Scale, ScenarioSpec, NAMES, REGISTRY};
use wavelan_fec::convolutional::{bytes_to_bits, ConvolutionalEncoder};
use wavelan_fec::harq::run_harq_encoded_with;
use wavelan_fec::rcpc::{CodeRate, RcpcCodec};
use wavelan_fec::{BlockInterleaver, FecScratch, ViterbiDecoder};
use wavelan_net::crc32::crc32;
use wavelan_net::testpkt::{Endpoint, TestPacket};
use wavelan_net::EthernetFrame;
use wavelan_phy::interference::{Emission, InterferenceKind};
use wavelan_phy::link::{segment_timeline, LinkModel, PacketOutcome};
use wavelan_phy::RxScratch;
use wavelan_sim::SimScratch;
use wavelan_store::{StoreKey, TieredStore};

/// Per-layer metrics: unit, samples, and whether the value is an exact
/// count.
#[derive(Default)]
struct Metrics(BTreeMap<String, (&'static str, Vec<f64>, bool)>);

impl Metrics {
    fn put(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.0.insert(name.to_string(), (unit, samples, false));
    }

    fn exact(&mut self, name: &str, unit: &'static str, value: u64) {
        self.0
            .insert(name.to_string(), (unit, vec![value as f64], true));
    }

    fn to_json(&self) -> J {
        J::Obj(
            self.0
                .iter()
                .map(|(name, (unit, samples, exact))| {
                    (
                        name.clone(),
                        J::obj(vec![
                            ("unit", J::str(unit)),
                            ("samples", J::nums(samples)),
                            ("exact", J::Bool(*exact)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Self time, ns, of the spans named `name`, summed per run id.
fn per_run_ns(tr: &Tracer, name: &str) -> BTreeMap<u32, (u64, u64)> {
    let own = tr.self_ns();
    let mut runs = BTreeMap::new();
    for (span, ns) in tr.spans().iter().zip(own) {
        if span.name == name {
            let e = runs.entry(span.run).or_insert((0, 0));
            e.0 += ns;
            e.1 += span.calls;
        }
    }
    runs
}

fn scaled(values: Vec<f64>, by: f64) -> Vec<f64> {
    values.into_iter().map(|v| v * by).collect()
}

/// One 1,070-byte test frame's build, CRC and parse.
fn net(tr: &mut Tracer, m: &mut Metrics, seed: u64) {
    const CALLS: u64 = 2_000;
    let (src, dst) = (Endpoint::station(1), Endpoint::station(2));
    let frame = TestPacket { seq: seed as u32 }.build_frame(src, dst);
    for _ in 0..30 {
        tr.time("net.frame_build", CALLS, || {
            for i in 0..CALLS as u32 {
                black_box(TestPacket { seq: black_box(i) }.build_frame(src, dst));
            }
        });
        tr.time("net.crc32", CALLS, || {
            for _ in 0..CALLS {
                black_box(crc32(black_box(&frame)));
            }
        });
        tr.time("net.frame_parse", CALLS, || {
            for _ in 0..CALLS {
                let _ = black_box(EthernetFrame::parse(black_box(&frame)));
            }
        });
    }
    for name in ["frame_build", "crc32", "frame_parse"] {
        let key = format!("net.{name}");
        m.put(&format!("{key}_ns"), "ns", tr.per_call_ns(&key));
    }
}

/// Bits in a 1,070-byte packet.
const PACKET_BITS: u64 = 8_560;

/// A narrowband FM carrier over the whole packet, as in the Table 10
/// trials.
fn narrowband() -> Vec<Emission> {
    vec![Emission {
        start_bit: 0,
        end_bit: PACKET_BITS,
        raw_dbm: -35.0,
        kind: InterferenceKind::NarrowbandInBand,
    }]
}

/// Wideband in-band bursts every 1,400 bits, as the spread-spectrum phone
/// jams the Table 11-13 link.
fn jam() -> Vec<Emission> {
    (0..)
        .map(|k| 400 + 1_400 * k)
        .take_while(|&s| s < PACKET_BITS)
        .map(|start_bit| Emission {
            start_bit,
            end_bit: (start_bit + 700).min(PACKET_BITS),
            raw_dbm: -72.0,
            kind: InterferenceKind::WidebandInBand,
        })
        .collect()
}

/// `LinkModel::receive_with` on the clean, narrowband and jammed channels,
/// and the segment timeline of the jammed one.
fn phy(tr: &mut Tracer, m: &mut Metrics, seed: u64) {
    const CALLS: u64 = 1_000;
    let model = LinkModel::default();
    let cases = [
        ("clean", -48.0, Vec::new()),
        ("narrowband", -48.0, narrowband()),
        ("jam", -62.0, jam()),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = RxScratch::new();
    for _ in 0..20 {
        for (name, signal_dbm, em) in &cases {
            tr.time(&format!("phy.receive.{name}"), CALLS, || {
                for _ in 0..CALLS {
                    let mut outcome = model.receive_with(
                        *signal_dbm,
                        black_box(em),
                        PACKET_BITS,
                        &mut rng,
                        &mut scratch,
                    );
                    if let PacketOutcome::Received(ref mut r) = outcome {
                        scratch.recycle_error_buf(std::mem::take(&mut r.error_bits));
                    }
                    black_box(&outcome);
                }
            });
        }
        let em = &cases[2].2;
        tr.time("phy.timeline", CALLS, || {
            for _ in 0..CALLS {
                black_box(segment_timeline(black_box(em), PACKET_BITS));
            }
        });
    }
    for (name, _, _) in &cases {
        m.put(
            &format!("phy.receive_ns.{name}"),
            "ns",
            tr.per_call_ns(&format!("phy.receive.{name}")),
        );
    }
    m.put("phy.timeline_ns", "ns", tr.per_call_ns("phy.timeline"));
}

/// The scenario specs whose simulation the workload exercises: each
/// artifact's `Experiment::spec()` at the workload's seed and scale, or
/// the first points of the sweep space.
fn specs(workload: Workload, seed: u64) -> Vec<(ScenarioSpec, Scale, u64)> {
    match workload {
        Workload::Paper => REGISTRY
            .iter()
            .map(|e| (e.spec(), Scale::Paper, seed))
            .collect(),
        Workload::Contention => CONTENTION
            .iter()
            .map(|a| (find(a).expect("registered").spec(), Scale::Paper, seed))
            .collect(),
        Workload::Sweep => work::sweep_space()
            .canonicalize()
            .and_then(|s| s.expand(seed))
            .expect("the oven-lhs preset expands")
            .into_iter()
            .take(64)
            .map(|p| (p.spec, Scale::Smoke, p.seed))
            .collect(),
        Workload::Serve => REGISTRY
            .iter()
            .map(|e| (e.spec(), Scale::Smoke, seed))
            .collect(),
    }
}

/// Resident memory of this process, MB, from `/proc/self/statm` (0 where
/// unavailable).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|p| p.parse::<f64>().ok())
        })
        .map_or(0.0, |pages| pages * 4096.0 / (1024.0 * 1024.0))
}

/// Peak resident memory since the last [`reset_peak`], MB (`VmHWM`).
fn peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the kernel's peak-RSS mark to the current RSS (Linux).
fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Where one spec's memory went: before the run, holding its buffered
/// receiver trace after the run, and the peak through the run and the
/// classify pass.
struct Memory {
    spec: String,
    records: u64,
    before_mb: f64,
    after_run_mb: f64,
    peak_mb: f64,
}

/// `ScenarioSpec::build`, `Scenario::run_in`, and the analysis of the
/// receiver's records (buffered classify and streaming fold), with the
/// simulator's and MAC's counters and each spec's memory.
fn sim(tr: &mut Tracer, m: &mut Metrics, workload: Workload, seed: u64) -> Vec<Memory> {
    let specs = specs(workload, seed);
    let reps = if workload == Workload::Paper { 1 } else { 3 };
    let expected = expected_series();
    let mut scratch = SimScratch::new();
    let (mut offers, mut delivered, mut overlaps, mut captures) = (0u64, 0u64, 0u64, 0u64);
    let (mut attempts, mut transmissions, mut records) = (0u64, 0u64, 0u64);
    let mut memory = Vec::new();
    for rep in 0..reps {
        tr.next_run();
        for (spec, scale, s) in &specs {
            let before_mb = rss_mb();
            reset_peak();
            let (scenario, rx, tx) = tr
                .time("core.spec_build", 1, || spec.build(*s))
                .expect("registry and sweep specs build");
            let packets = scale.packets(spec.packet_budget);
            let result = tr.time("sim.run", 1, || scenario.run_in(tx, packets, &mut scratch));
            let after_run_mb = rss_mb();
            let trace = result.traces[rx].as_ref().expect("the receiver records");
            let n = trace.records.len() as u64;
            tr.time("analysis.classify", n, || {
                black_box(analyze(trace, &expected))
            });
            if rep == 0 {
                memory.push(Memory {
                    spec: spec.name.clone(),
                    records: n,
                    before_mb,
                    after_run_mb,
                    peak_mb: peak_mb(),
                });
            }
            tr.time("analysis.fold", n, || {
                let mut fold = StreamAnalysis::new(expected, rx);
                for record in &trace.records {
                    fold.fold(&record.view());
                }
                black_box(fold.records())
            });
            if rep == 0 {
                let sum = |v: &[u64]| v.iter().sum::<u64>();
                offers += sum(&result.packets_delivered)
                    + sum(&result.packets_filtered)
                    + sum(&result.rx_lost)
                    + sum(&result.offers_rejected_busy);
                delivered += sum(&result.packets_delivered);
                overlaps += result.overlap_count;
                captures += sum(&result.captures_made);
                attempts += result.mac_stats.iter().map(|s| s.attempts).sum::<u64>();
                transmissions += result
                    .mac_stats
                    .iter()
                    .map(|s| s.transmissions)
                    .sum::<u64>();
                records += n;
            }
        }
    }
    let sim_runs: Vec<(u64, u64)> = per_run_ns(tr, "sim.run").into_values().collect();
    m.put(
        "sim.run_ms",
        "ms",
        sim_runs.iter().map(|&(ns, _)| ns as f64 / 1e6).collect(),
    );
    m.put(
        "sim.ns_per_offer",
        "ns",
        sim_runs
            .iter()
            .map(|&(ns, _)| ns as f64 / offers.max(1) as f64)
            .collect(),
    );
    for (layer, metric) in [
        ("analysis.classify", "analysis.classify_ns_per_record"),
        ("analysis.fold", "analysis.fold_ns_per_record"),
    ] {
        let runs = per_run_ns(tr, layer);
        m.put(
            metric,
            "ns",
            runs.into_values()
                .map(|(ns, calls)| ns as f64 / calls.max(1) as f64)
                .collect(),
        );
    }
    m.put(
        "core.spec_build_us",
        "us",
        scaled(tr.per_call_ns("core.spec_build"), 1e-3),
    );
    m.exact("sim.offers", "count", offers);
    m.exact("sim.trace_records", "count", records);
    m.exact("sim.overlaps", "count", overlaps);
    m.exact("sim.captures", "count", captures);
    m.exact("mac.attempts", "count", attempts);
    m.put(
        "sim.delivered_ratio",
        "ratio",
        vec![delivered as f64 / offers.max(1) as f64],
    );
    m.put(
        "mac.tx_per_attempt",
        "ratio",
        vec![transmissions as f64 / attempts.max(1) as f64],
    );
    memory
}

/// Viterbi decode of a 1,024-byte frame, the RCPC replay path at the
/// strongest and weakest rates, and a full HARQ exchange, over a 2%
/// bit-flip channel. Returns the dispatched Viterbi kernel.
fn fec(tr: &mut Tracer, m: &mut Metrics, seed: u64) -> &'static str {
    const PAYLOAD: usize = 1_024;
    let payload: Vec<u8> = (0..PAYLOAD).map(|i| (i * 29) as u8).collect();
    let mother = ConvolutionalEncoder::new().encode_terminated(&bytes_to_bits(&payload));
    let mut rng = StdRng::seed_from_u64(seed);
    let qsyms: Vec<i16> = mother
        .iter()
        .map(|&b| {
            let tx = if b == 1 { 1i16 } else { -1 };
            if rng.gen::<f64>() < 0.02 {
                -tx
            } else {
                tx
            }
        })
        .collect();
    let decoder = ViterbiDecoder::new();
    let codec = RcpcCodec::new();
    let interleaver = BlockInterleaver::new(64, 128);
    let wires: Vec<(&str, CodeRate, Vec<u8>)> =
        [("r1_2", CodeRate::R1_2), ("r8_9", CodeRate::R8_9)]
            .into_iter()
            .map(|(label, rate)| {
                let mut wire = interleaver.interleave(&codec.encode(&payload, rate));
                for _ in 0..40 {
                    let i = rng.gen_range(0..wire.len());
                    wire[i] ^= 1;
                }
                (label, rate, wire)
            })
            .collect();
    let mut scratch = FecScratch::new();
    let (mut out, mut received) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        tr.time("fec.viterbi", 10, || {
            for _ in 0..10 {
                decoder.decode_quantized_with(black_box(&qsyms), &mut scratch, &mut out);
            }
        });
        for (label, rate, wire) in &wires {
            tr.time(&format!("fec.rcpc.{label}"), 10, || {
                for _ in 0..10 {
                    interleaver.deinterleave_into(black_box(wire), &mut received);
                    codec.decode_hard_with(&received, PAYLOAD, *rate, &mut scratch, &mut out);
                }
            });
        }
        tr.time("fec.harq", 5, || {
            for _ in 0..5 {
                black_box(run_harq_encoded_with(
                    &payload,
                    black_box(&mother),
                    12,
                    |bit| {
                        let tx = if bit == 1 { 1.0 } else { -1.0 };
                        if rng.gen::<f64>() < 0.02 {
                            -tx
                        } else {
                            tx
                        }
                    },
                    &mut scratch,
                ));
            }
        });
    }
    m.put(
        "fec.viterbi_us",
        "us",
        scaled(tr.per_call_ns("fec.viterbi"), 1e-3),
    );
    for (label, _, _) in &wires {
        m.put(
            &format!("fec.rcpc_us.{label}"),
            "us",
            scaled(tr.per_call_ns(&format!("fec.rcpc.{label}")), 1e-3),
        );
    }
    m.put(
        "fec.harq_us",
        "us",
        scaled(tr.per_call_ns("fec.harq"), 1e-3),
    );
    decoder.kernel_name()
}

/// Expanding the workload's sweep space and building a ranked report from
/// a finished sweep document.
fn sweep(
    tr: &mut Tracer,
    m: &mut Metrics,
    workload: Workload,
    seed: u64,
    doc: Option<wavelan_core::SweepDocument>,
    exec: &Executor,
) {
    let space = if workload == Workload::Sweep {
        work::sweep_space()
    } else {
        wavelan_core::sweep::preset("oven-smoke").expect("built-in preset")
    };
    let doc = doc.unwrap_or_else(|| {
        space
            .run(Scale::Smoke, seed, exec)
            .expect("preset sweeps run")
    });
    for _ in 0..5 {
        tr.time("core.sweep_expand", 1, || {
            black_box(
                space
                    .clone()
                    .canonicalize()
                    .and_then(|s| s.expand(seed))
                    .expect("expands"),
            )
        });
        tr.time("core.sweep_report", 1, || black_box(doc.report()));
    }
    m.put(
        "core.sweep_expand_ms",
        "ms",
        scaled(tr.per_call_ns("core.sweep_expand"), 1e-6),
    );
    m.put(
        "core.sweep_report_ms",
        "ms",
        scaled(tr.per_call_ns("core.sweep_report"), 1e-6),
    );
}

/// Serializing and rendering the workload's own output documents.
fn output(tr: &mut Tracer, m: &mut Metrics, it: &Iteration, workload: Workload, seed: u64) {
    let mut bytes = 0u64;
    for rep in 0..3 {
        if let Some(doc) = &it.sweep {
            let json = tr.time("analysis.json_doc", 1, || to_string_pretty(doc));
            tr.time("analysis.render", 1, || black_box(doc.report().render()));
            if rep == 0 {
                bytes += json.len() as u64;
            }
        }
        for (report, (_, scale, s)) in it.reports.iter().zip(work::artifact_runs(workload, seed)) {
            let doc = RunDocument {
                scale: scale.name(),
                seed: s,
                artifacts: vec![report.clone()],
            };
            let json = tr.time("analysis.json_doc", 1, || to_string_pretty(&doc));
            tr.time("analysis.render", 1, || black_box(report.render()));
            if rep == 0 {
                bytes += json.len() as u64;
            }
        }
    }
    m.put(
        "analysis.json_us",
        "us",
        scaled(tr.per_call_ns("analysis.json_doc"), 1e-3),
    );
    m.put(
        "analysis.render_us",
        "us",
        scaled(tr.per_call_ns("analysis.render"), 1e-3),
    );
    m.exact("analysis.json_bytes", "count", bytes);
}

/// `TieredStore` insert, L1 get and L2 get on a temporary directory, with
/// the `/run` bodies of every artifact at smoke scale.
fn store(
    tr: &mut Tracer,
    m: &mut Metrics,
    smoke: &Iteration,
    seed: u64,
    root: &Path,
) -> Result<(), String> {
    let dir = root
        .join(".bench_out")
        .join(format!("store-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hashes: BTreeMap<&str, u64> = registry_spec_hashes().into_iter().collect();
    let bodies: Vec<(&str, Arc<String>)> = smoke
        .reports
        .iter()
        .map(|r| {
            (
                r.artifact,
                Arc::new(work::run_json(r.clone(), Scale::Smoke, seed)),
            )
        })
        .collect();
    let result = (|| {
        let tier = TieredStore::with_disk(16, &dir).map_err(|e| e.to_string())?;
        let mut keys = Vec::new();
        for rep in 0..3 {
            for (artifact, body) in &bodies {
                let key = StoreKey::run(artifact, seed + rep, "smoke");
                tr.time("store.insert", 1, || {
                    tier.insert(&key, hashes[artifact], body.clone())
                });
                keys.push((key, hashes[artifact], body.clone()));
            }
        }
        let (hot, hot_hash, _) = keys.last().expect("bodies were inserted").clone();
        for _ in 0..20 {
            tr.time("store.get.l1", 100, || {
                for _ in 0..100 {
                    black_box(tier.get(black_box(&hot), hot_hash));
                }
            });
        }
        let cold = TieredStore::with_disk(0, &dir).map_err(|e| e.to_string())?;
        for (key, hash, body) in &keys {
            let got = tr.time("store.get.l2", 1, || cold.get(key, *hash));
            if got.as_deref() != Some(body.as_ref()) {
                return Err(format!(
                    "store returned wrong bytes for {}",
                    key.canonical()
                ));
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    m.put(
        "store.insert_us",
        "us",
        scaled(tr.per_call_ns("store.insert"), 1e-3),
    );
    m.put(
        "store.get_us.l1",
        "us",
        scaled(tr.per_call_ns("store.get.l1"), 1e-3),
    );
    m.put(
        "store.get_us.l2",
        "us",
        scaled(tr.per_call_ns("store.get.l2"), 1e-3),
    );
    result
}

pub fn main(workload: Workload, seed: u64, root: &Path, spans: &Path) {
    let exec = Executor::new(JOBS);
    let mut tr = Tracer::new(true);
    let mut m = Metrics::default();
    let mut problems = Vec::new();

    // The workload itself: untraced, traced (spans around each artifact or
    // sweep), and on one worker for the executor's efficiency.
    let untraced = work::run_batch(workload, seed, &exec, &mut Tracer::new(false));
    tr.next_run();
    let traced = work::run_batch(workload, seed, &exec, &mut tr);
    let serial = work::run_batch(workload, seed, &Executor::serial(), &mut Tracer::new(false));
    for it in [&untraced, &traced, &serial] {
        problems.extend(it.problems.iter().cloned());
    }
    if untraced.digest != traced.digest || untraced.digest != serial.digest {
        problems.push(String::from("output digest differs between iterations"));
    }
    m.put(
        "trace.overhead_s",
        "s",
        vec![traced.wall_s - untraced.wall_s],
    );
    m.put(
        "core.executor_efficiency",
        "ratio",
        vec![serial.wall_s / (JOBS as f64 * untraced.wall_s)],
    );

    // Every artifact at smoke scale: the serve workload's bodies, and the
    // times of the artifacts the workload does not run itself.
    let traced_wall = traced.wall_s;
    tr.next_run();
    let (smoke, smoke_run) = match workload {
        Workload::Serve => (traced, None),
        _ => (
            work::run_artifacts(Workload::Serve, seed, &exec, &mut tr),
            Some(tr.run()),
        ),
    };
    for name in NAMES {
        let key = format!("core.artifact:{name}");
        let own = tr.per_call_ns_where(&key, |run| Some(run) != smoke_run);
        let samples = if own.is_empty() {
            tr.per_call_ns_where(&key, |run| Some(run) == smoke_run)
        } else {
            own
        };
        m.put(
            &format!("core.artifact_s.{name}"),
            "s",
            scaled(samples, 1e-9),
        );
    }

    tr.next_run();
    net(&mut tr, &mut m, seed);
    tr.next_run();
    phy(&mut tr, &mut m, seed);
    let memory = sim(&mut tr, &mut m, workload, seed);
    tr.next_run();
    let kernel = fec(&mut tr, &mut m, seed);
    tr.next_run();
    let doc = if workload == Workload::Sweep {
        untraced.sweep.clone()
    } else {
        None
    };
    sweep(&mut tr, &mut m, workload, seed, doc, &exec);
    tr.next_run();
    let outputs = if workload == Workload::Serve {
        &smoke
    } else {
        &untraced
    };
    output(&mut tr, &mut m, outputs, workload, seed);
    tr.next_run();
    if let Err(e) = store(&mut tr, &mut m, &smoke, seed, root) {
        problems.push(e);
    }
    if let Err(e) = tr.write_jsonl(spans) {
        problems.push(format!("cannot write {}: {e}", spans.display()));
    }
    crate::emit(&J::obj(vec![
        ("wall_s_untraced", J::Num(untraced.wall_s)),
        ("wall_s_traced", J::Num(traced_wall)),
        ("viterbi_kernel", J::str(kernel)),
        ("spans", J::Int(tr.spans().len() as u64)),
        (
            "memory",
            J::Arr(
                memory
                    .iter()
                    .map(|mem| {
                        J::obj(vec![
                            ("spec", J::str(&mem.spec)),
                            ("records", J::Int(mem.records)),
                            ("before_mb", J::Num(mem.before_mb)),
                            ("after_run_mb", J::Num(mem.after_run_mb)),
                            ("peak_mb", J::Num(mem.peak_mb)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "problems",
            J::Arr(problems.iter().map(|p| J::str(p)).collect()),
        ),
        ("metrics", m.to_json()),
    ]));
}
