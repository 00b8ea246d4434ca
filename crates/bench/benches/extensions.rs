//! Benchmarks for the future-work subsystems: hybrid ARQ, the TDMA
//! scheduler, Gilbert–Elliott generation/fitting, and trace persistence
//! (the WLTC columnar format).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wavelan_analysis::tracecodec::{TraceMeta, TraceReader, TraceWriter};
use wavelan_fec::harq::{run_harq, HarqSender};
use wavelan_mac::tdma::TdmaScheduler;
use wavelan_net::testpkt::Endpoint;
use wavelan_phy::gilbert::GilbertElliott;
use wavelan_sim::runner::attach_tx_count;
use wavelan_sim::trace::Trace;
use wavelan_sim::{Point, ScenarioBuilder, StationConfig};

fn harq(c: &mut Criterion) {
    let mut g = c.benchmark_group("harq");
    g.sample_size(10);
    let payload: Vec<u8> = (0..256u16).map(|i| i as u8).collect();
    g.bench_function("sender_increments", |b| {
        b.iter(|| {
            let mut s = HarqSender::new(&payload);
            (0..4).map(|_| s.next_increment().len()).sum::<usize>()
        })
    });
    g.bench_function("full_protocol_clean_channel", |b| {
        b.iter(|| run_harq(&payload, 4, |bit| if bit == 1 { 1.0 } else { -1.0 }))
    });
    g.bench_function("full_protocol_2pct_bsc", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            run_harq(&payload, 8, |bit| {
                let tx = if bit == 1 { 1.0 } else { -1.0 };
                if rand::Rng::gen::<f64>(&mut rng) < 0.02 {
                    -tx
                } else {
                    tx
                }
            })
        })
    });
    g.finish();
}

fn tdma(c: &mut Criterion) {
    let mut g = c.benchmark_group("tdma");
    g.throughput(Throughput::Elements(1));
    g.bench_function("schedule_16_stations", |b| {
        let mut s = TdmaScheduler::new(16, 33);
        for i in 0..16 {
            s.reserve(i, (i as u64 + 1) * 3);
        }
        b.iter(|| s.schedule())
    });
    g.finish();
}

fn gilbert(c: &mut Criterion) {
    let mut g = c.benchmark_group("gilbert");
    let ch = GilbertElliott::new(2e-5, 0.02, 1e-6, 0.3);
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("generate_100k_bits", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| ch.generate(100_000, &mut rng))
    });
    let mut rng = StdRng::seed_from_u64(3);
    let errors = ch.generate(500_000, &mut rng);
    g.bench_function("fit_500k_bits", |b| {
        b.iter(|| GilbertElliott::fit(&errors, 200))
    });
    g.finish();
}

/// Encodes `trace` as a one-stream WLTC file.
fn encode(trace: &Trace, out: Vec<u8>) -> Vec<u8> {
    let meta = TraceMeta {
        artifact: String::from("bench"),
        scale: String::from("bench"),
        seed: 4,
        spec_hash: 0,
        packet_budget: 2_000,
    };
    let mut w = TraceWriter::new(out, &meta).unwrap();
    w.begin_stream("rx").unwrap();
    for r in &trace.records {
        w.push(&r.view()).unwrap();
    }
    w.end_stream(trace.packets_transmitted, trace.packets_dropped_by_mac)
        .unwrap();
    w.finish().unwrap()
}

fn tracecodec(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracecodec");
    g.sample_size(10);
    // A real 2,000-packet trace.
    let mut b = ScenarioBuilder::new(4);
    let rx = b.station(StationConfig::receiver(
        Endpoint::station(1),
        Point::feet(0.0, 0.0),
    ));
    let tx = b.station(StationConfig::sender(
        Endpoint::station(2),
        Point::feet(7.0, 0.0),
        rx,
    ));
    let scenario = b.build();
    let mut result = scenario.run(tx, 2_000);
    attach_tx_count(&mut result, rx, tx);
    let trace = result.trace(rx).clone();
    let buf = encode(&trace, Vec::new());
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("write_2000_packets", |bch| {
        bch.iter(|| encode(&trace, Vec::with_capacity(buf.len())).len())
    });
    g.bench_function("read_2000_packets", |bch| {
        bch.iter(|| {
            let mut r = TraceReader::open(&buf[..]).unwrap();
            r.next_stream().unwrap();
            let mut records = 0usize;
            r.for_each_record(|_| records += 1).unwrap();
            records
        })
    });
    g.finish();
}

criterion_group!(benches, harq, tdma, gilbert, tracecodec);
criterion_main!(benches);
