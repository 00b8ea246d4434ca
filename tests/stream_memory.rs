//! Constant-memory proof for the streaming capture path: a peak-tracking
//! global allocator observes the live heap while a trial streams through
//! [`StreamAnalysis`], and the peak must not grow with the packet count.
//!
//! The buffered path keeps one `TraceRecord` (timestamp, metrics, payload
//! copy) per packet, so its footprint is linear in the trial length. The
//! streaming fold keeps only counters and running sums; a run 100x longer
//! must fit in the same heap envelope, give or take allocator noise. The
//! same holds for a whole production driver: Table 2's nine trials stream
//! through the fold, so a Reduced-scale run peaks where a Smoke-scale run
//! does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use wavelan_analysis::StreamAnalysis;
use wavelan_core::experiments::common::expected_series;
use wavelan_core::experiments::in_room;
use wavelan_core::{Executor, Scale, ScenarioSpec};
use wavelan_sim::SimScratch;

struct PeakAlloc;

/// Net live heap bytes and the high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The counters are process-wide, so the tests that read them take turns.
/// The lock guards no data, so a turn that panicked leaves nothing to
/// repair and the next test proceeds.
static TURN: Mutex<()> = Mutex::new(());

fn note_growth(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_growth(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note_growth(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Streams `packets` packets through the fold and returns the peak heap
/// growth (bytes above the pre-run live level) plus the record count.
fn streamed_peak(packets: u64) -> (usize, u64) {
    let spec = ScenarioSpec::pair("memory-probe", (10.0, 10.0), (25.0, 10.0), packets);
    let (scenario, rx, tx) = spec.build(1996).expect("valid probe spec");
    let mut scratch = SimScratch::new();
    let mut fold = StreamAnalysis::new(expected_series(), rx);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = scenario.run_streamed(tx, packets, &mut scratch, &mut fold);
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);

    fold.set_transmitted(result.packets_transmitted[tx]);
    assert_eq!(
        result.packets_transmitted[tx], packets,
        "probe channel should carry the whole budget"
    );
    (peak, fold.records())
}

#[test]
fn streamed_capture_memory_is_flat_in_packet_count() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    // Warm-up at the small size: memo tables, timeline caches, and scratch
    // buffers all reach steady-state capacity here.
    let small = 300u64;
    streamed_peak(small);

    let (small_peak, small_records) = streamed_peak(small);
    let big = small * 100;
    let (big_peak, big_records) = streamed_peak(big);

    // Lost packets leave no record, so expect most-but-not-all of the
    // budget at the receiver.
    assert!(
        small_records >= small * 9 / 10 && big_records >= big * 9 / 10,
        "probe runs too small: {small_records}/{small}, {big_records}/{big}"
    );

    // A buffered capture of the big run would hold ~30k records (> 3 MB of
    // payload alone). The streamed fold must stay within the small run's
    // envelope plus a small fixed slack for allocator/scratch jitter.
    const SLACK: usize = 256 * 1024;
    assert!(
        big_peak <= small_peak + SLACK,
        "streamed memory grew with packet count: {small_peak} bytes at {small} \
         packets but {big_peak} bytes at {big} packets"
    );
}

/// Runs the Table 2 driver on one worker and returns the peak heap growth
/// plus the test packets its nine trials received.
fn in_room_peak(scale: Scale) -> (usize, u64) {
    let exec = Executor::new(1);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = in_room::run_with(scale, 1996, &exec);
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    (peak, result.trials.iter().map(|t| t.packets_received).sum())
}

#[test]
fn table2_driver_memory_is_flat_in_packet_count() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    in_room_peak(Scale::Smoke);

    let (smoke_peak, smoke_packets) = in_room_peak(Scale::Smoke);
    let (reduced_peak, reduced_packets) = in_room_peak(Scale::Reduced);
    // Reduced runs ~11x Smoke's packets in total and ~30x in the longest
    // trial (office5: 61,092 against 2,000).
    assert!(
        reduced_packets >= 10 * smoke_packets,
        "scales too close: {smoke_packets} vs {reduced_packets} packets"
    );

    // Buffering office5 alone at Reduced scale would hold ~61k records
    // (tens of MB); the streamed driver must stay in Smoke's envelope.
    const SLACK: usize = 256 * 1024;
    assert!(
        reduced_peak <= smoke_peak + SLACK,
        "table2 memory grew with packet count: {smoke_peak} bytes at Smoke \
         ({smoke_packets} packets) but {reduced_peak} bytes at Reduced \
         ({reduced_packets} packets)"
    );
}
