//! Shared experiment harness: the two-station trial every experiment builds
//! on, plus run-size scaling.

use wavelan_analysis::{ExpectedSeries, StreamAnalysis};
use wavelan_mac::network_id::NetworkId;
use wavelan_mac::Thresholds;
use wavelan_net::testpkt::Endpoint;
use wavelan_sim::{
    AmbientSource, FloorPlan, Point, Propagation, Scenario, ScenarioBuilder, SimScratch,
    StationConfig,
};

/// How large to run each trial relative to the paper.
///
/// The paper's long trials (up to 488,399 packets) are exact reproductions
/// only at [`Scale::Paper`]; tests use [`Scale::Smoke`] and the `repro`
/// binary defaults to [`Scale::Reduced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast: a few hundred packets per trial (CI tests).
    Smoke,
    /// One eighth of the paper's packet counts (interactive runs).
    Reduced,
    /// The paper's exact packet counts.
    Paper,
}

impl Scale {
    /// Scales a paper packet count.
    pub fn packets(self, paper_count: u64) -> u64 {
        match self {
            Scale::Smoke => (paper_count / 64).clamp(300, 2_000),
            Scale::Reduced => (paper_count / 8).max(500),
            Scale::Paper => paper_count,
        }
    }

    /// The CLI/JSON name of the scale (`smoke`, `reduced`, `paper`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Reduced => "reduced",
            Scale::Paper => "paper",
        }
    }
}

/// The conventional endpoints: station 1 receives, station 2 transmits.
pub fn test_receiver() -> Endpoint {
    Endpoint::station(1)
}

/// See [`test_receiver`].
pub fn test_sender() -> Endpoint {
    Endpoint::station(2)
}

/// The analyzer's knowledge of the test series.
pub fn expected_series() -> ExpectedSeries {
    ExpectedSeries {
        src: test_sender(),
        dst: test_receiver(),
        network_id: NetworkId::TESTBED,
    }
}

/// A single sender → receiver trial specification.
#[derive(Debug)]
pub struct PointTrial {
    /// Building geometry.
    pub plan: FloorPlan,
    /// Propagation model.
    pub propagation: Propagation,
    /// Receiver position.
    pub rx: Point,
    /// Sender position.
    pub tx: Point,
    /// Receiver thresholds (default: the study's 3/1).
    pub rx_thresholds: Thresholds,
    /// Ambient interference sources.
    pub ambient: Vec<AmbientSource>,
    /// Packets to transmit.
    pub packets: u64,
    /// Trial seed.
    pub seed: u64,
}

impl PointTrial {
    /// A trial with default thresholds and no interference.
    pub fn new(
        plan: FloorPlan,
        propagation: Propagation,
        rx: Point,
        tx: Point,
        packets: u64,
        seed: u64,
    ) -> PointTrial {
        PointTrial {
            plan,
            propagation,
            rx,
            tx,
            rx_thresholds: Thresholds::default(),
            ambient: Vec::new(),
            packets,
            seed,
        }
    }

    /// Builds the scenario (receiver is station 0, sender station 1).
    pub fn scenario(&self) -> (Scenario, usize, usize) {
        let mut b = ScenarioBuilder::new(self.seed);
        let rx = b.station(StationConfig {
            thresholds: self.rx_thresholds,
            ..StationConfig::receiver(test_receiver(), self.rx)
        });
        let tx = b.station(StationConfig::sender(test_sender(), self.tx, rx));
        for src in &self.ambient {
            b.ambient(*src);
        }
        let mut scenario = b.floorplan(self.plan.clone()).build();
        scenario.propagation = self.propagation.clone();
        (scenario, rx, tx)
    }

    /// Runs the trial streamed: every receiver record is classified and
    /// folded the moment the simulator resolves it, so memory stays flat in
    /// the packet count. `scratch` is the caller's reusable workspace
    /// (buffers and memo caches persist across trials, bit-identically).
    pub fn fold_in(&self, scratch: &mut SimScratch) -> StreamAnalysis {
        let (scenario, rx, tx) = self.scenario();
        let mut fold = StreamAnalysis::new(expected_series(), rx);
        let result = scenario.run_streamed(tx, self.packets, scratch, &mut fold);
        fold.set_transmitted(result.packets_transmitted[tx]);
        fold
    }

    /// The buffered reference: runs the trial capturing the whole receiver
    /// trace, then classifies it packet by packet. Tests hold
    /// [`PointTrial::fold_in`] to this.
    #[cfg(test)]
    pub(crate) fn analyze(&self) -> wavelan_analysis::TraceAnalysis {
        let (scenario, rx, tx) = self.scenario();
        let mut result = scenario.run_in(tx, self.packets, &mut SimScratch::new());
        wavelan_sim::runner::attach_tx_count(&mut result, rx, tx);
        let trace = result.traces[rx].take().expect("receiver records");
        wavelan_analysis::analyze(&trace, &expected_series())
    }
}

/// Adds an "outsider" pair to a scenario: two stations from another
/// building, on a foreign network ID, weakly audible and usually damaged —
/// the packets the paper labels "Outsiders" ("typically these packets were
/// few, had poor signal characteristics, and were damaged. Frequently we
/// could determine that they were ARP packets or inter-bridge routing
/// packets"). They chatter to each other at a low rate. Returns their ids.
pub fn add_outsider_pair(b: &mut ScenarioBuilder, near: Point, far: Point) -> (usize, usize) {
    let a_id = b.next_station_id();
    let b_id = a_id + 1;
    let mut a_cfg = StationConfig::sender(Endpoint::foreign(200), near, b_id);
    a_cfg.network_id = NetworkId(0x0B5D);
    a_cfg.frame = wavelan_sim::station::FrameKind::Chatter;
    a_cfg.traffic = wavelan_sim::station::Traffic::Periodic {
        peer: b_id,
        interval_ns: 9_000_000,
    };
    assert_eq!(b.station(a_cfg), a_id);
    let mut b_cfg = StationConfig::sender(Endpoint::foreign(201), far, a_id);
    b_cfg.network_id = NetworkId(0x0B5D);
    b_cfg.frame = wavelan_sim::station::FrameKind::Chatter;
    b_cfg.traffic = wavelan_sim::station::Traffic::Periodic {
        peer: a_id,
        interval_ns: 13_000_000,
    };
    assert_eq!(b.station(b_cfg), b_id);
    (a_id, b_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::experiments::{body, in_room, multiroom, path_loss, walls};
    use crate::layouts;
    use wavelan_analysis::{PacketClass, TrialSummary};

    #[test]
    fn scale_policies() {
        assert_eq!(Scale::Paper.packets(102_720), 102_720);
        assert_eq!(Scale::Reduced.packets(102_720), 12_840);
        assert_eq!(Scale::Smoke.packets(102_720), 1_605);
        assert_eq!(Scale::Smoke.packets(1_000), 300);
        assert_eq!(Scale::Smoke.packets(1_000_000), 2_000);
        assert_eq!(Scale::Reduced.packets(1_000), 500);
    }

    #[test]
    fn point_trial_runs_and_folds() {
        let (plan, rx, tx) = layouts::office();
        let trial = PointTrial::new(plan, Propagation::indoor(1), rx, tx, 400, 1);
        let summary = trial.fold_in(&mut SimScratch::new()).summary("office");
        assert!(summary.packets_received >= 398);
        assert_eq!(summary.packets_transmitted, 400);
    }

    /// Holds one folded trial to the buffered oracle: its Table 1 row, its
    /// all-test signal stats, and every class's count and signal stats,
    /// all with exact float equality.
    fn assert_fold_matches(fold: &StreamAnalysis, name: &str, trial: &PointTrial) {
        let oracle = trial.analyze();
        assert_eq!(
            fold.summary(name),
            TrialSummary::from_analysis(name, &oracle),
            "{name}"
        );
        assert_eq!(
            fold.signal_stats(),
            oracle.stats_where(|p| p.is_test),
            "{name}"
        );
        for class in [
            PacketClass::Undamaged,
            PacketClass::Truncated,
            PacketClass::WrapperDamaged,
            PacketClass::BodyDamaged,
        ] {
            assert_eq!(
                fold.count(class),
                oracle.count(class) as u64,
                "{name} {class:?}"
            );
            assert_eq!(
                fold.class_stats(class),
                oracle.stats_where(|p| p.is_test && p.class == class),
                "{name} {class:?}"
            );
        }
    }

    /// Every streamed `PointTrial` driver reports exactly what the buffered
    /// capture-then-classify path reports for the same trials.
    #[test]
    fn folded_drivers_equal_the_buffered_oracle() {
        let exec = Executor::default();
        let scale = Scale::Smoke;
        for seed in [3, 41, 1996] {
            let table2 = in_room::run_with(scale, seed, &exec);
            let trials = in_room::trials(scale, seed);
            assert_eq!(table2.trials.len(), trials.len());
            for ((name, trial), row) in trials.iter().zip(&table2.trials) {
                assert_eq!(*row, TrialSummary::from_analysis(name, &trial.analyze()));
            }

            let distances = [0.0, 10.0, 30.0, 60.0];
            let packets = scale.packets(1_440);
            let figure1 = path_loss::run_with(&distances, packets, seed, &exec);
            let trials = path_loss::trials(&distances, packets, seed);
            assert_eq!(figure1.samples.len(), trials.len());
            for ((distance_ft, trial), sample) in trials.iter().zip(&figure1.samples) {
                assert_eq!(sample.distance_ft, *distance_ft);
                let oracle = trial.analyze();
                assert_eq!(sample.level, oracle.stats_where(|p| p.is_test).0);
                assert_eq!(sample.packets_transmitted, oracle.transmitted);
            }

            let table4 = walls::run_with(scale, seed, &exec);
            let trials = walls::trials(scale, seed);
            assert_eq!(table4.trials.len(), trials.len());
            for ((name, trial), row) in trials.iter().zip(&table4.trials) {
                assert_fold_matches(&row.analysis, name, trial);
            }

            let tables5to7 = multiroom::run_with(scale, seed, &exec);
            let trials = multiroom::trials(scale, seed);
            assert_eq!(tables5to7.locations.len(), trials.len());
            for ((name, trial), location) in trials.iter().zip(&tables5to7.locations) {
                assert_fold_matches(&location.analysis, name, trial);
            }

            let tables8to9 = body::run_with(scale, seed, &exec);
            let trials = body::trials(scale, seed);
            for ((name, trial), fold) in trials.iter().zip([&tables8to9.no_body, &tables8to9.body])
            {
                assert_fold_matches(fold, name, trial);
            }
        }
    }
}
