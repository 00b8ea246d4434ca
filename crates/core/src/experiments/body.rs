//! Tables 8–9: the effect of a human body in the path.
//!
//! "In order to obtain a path with significant attenuation, we separated two
//! WaveLAN units by placing them in two rooms across a hallway. ... We
//! collected two packet streams, with the second impaired by the presence of
//! a person bending over as if to examine the laptop screen closely. ...
//! Interposing a person has induced packet loss, truncation, and packet body
//! damage. Furthermore, we observe a noticeable reduction in signal level."

use super::common::{PointTrial, Scale};
use crate::executor::{trial_seed, Executor};
use crate::layouts;
use crate::registry::Experiment;
use crate::spec::ScenarioSpec;
use wavelan_analysis::report::{render_blocks, results_table, signal_table, SignalRow};
use wavelan_analysis::{Block, PacketClass, Report, StreamAnalysis, TrialSummary};
use wavelan_sim::{Propagation, SimScratch};

/// This experiment's stream id for [`trial_seed`].
pub const EXPERIMENT_ID: u64 = 7;

/// The paper collected ≈1,440 packets per stream.
pub const PAPER_PACKETS: u64 = 1_440;

/// The Tables 8–9 result.
#[derive(Debug)]
pub struct BodyResult {
    /// The unimpaired stream's streamed aggregates.
    pub no_body: StreamAnalysis,
    /// The streamed aggregates of the stream with the person in the path.
    pub body: StreamAnalysis,
}

impl BodyResult {
    /// Table 8 rows.
    pub fn table8(&self) -> Vec<TrialSummary> {
        vec![self.no_body.summary("No body"), self.body.summary("Body")]
    }

    /// Table 9 rows.
    pub fn table9(&self) -> Vec<SignalRow> {
        let b = &self.body;
        vec![
            SignalRow::new("No body: All Packets", self.no_body.signal_stats()),
            SignalRow::new("Body: All Packets", b.signal_stats()),
            SignalRow::new("Body: Undamaged", b.class_stats(PacketClass::Undamaged)),
            SignalRow::new("Body: Truncated", b.class_stats(PacketClass::Truncated)),
            SignalRow::new(
                "Body: Wrapper damaged",
                b.class_stats(PacketClass::WrapperDamaged),
            ),
            SignalRow::new(
                "Body: Body damaged",
                b.class_stats(PacketClass::BodyDamaged),
            ),
        ]
    }

    /// Level drop the person causes.
    pub fn body_level_drop(&self) -> f64 {
        self.no_body.signal_stats().0.mean() - self.body.signal_stats().0.mean()
    }

    /// The report blocks: both tables with a blank separator.
    pub fn blocks(&self) -> Vec<Block> {
        vec![
            Block::Table(results_table(
                "Table 8: Effects of human body on packet loss and errors",
                &self.table8(),
            )),
            Block::Blank,
            Block::Table(signal_table(
                "Table 9: Effect of human body on signal measurements",
                &self.table9(),
            )),
        ]
    }

    /// Renders both tables.
    pub fn render(&self) -> String {
        render_blocks(&self.blocks())
    }
}

/// Registry entry reproducing Tables 8–9.
pub struct Tables8To9;

impl Experiment for Tables8To9 {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "table8-9"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["table8", "table9"]
    }

    fn paper_artifact(&self) -> &'static str {
        "Tables 8-9 (human body)"
    }

    fn paper_tables(&self) -> &'static [&'static str] {
        &["Table 8", "Table 9"]
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        2 * scale.packets(PAPER_PACKETS)
    }

    fn spec(&self) -> ScenarioSpec {
        // The impaired stream: the hallway layout with the person bent over
        // the receiver's laptop. Sweeps can slide the body (`walls[3].*`)
        // or remove its effect by moving it off the path.
        let (mut plan, _, _) = layouts::hallway();
        layouts::add_body(&mut plan);
        let mut spec = ScenarioSpec::pair("table8-9", (0.0, 0.0), (56.0, 0.0), PAPER_PACKETS)
            .with_plan(&plan);
        spec.propagation.shadowing_sigma_db = 0.0;
        spec
    }

    fn run(&self, scale: Scale, seed: u64, exec: &Executor) -> Report {
        let result = run_with(scale, seed, exec);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(scale),
            result.blocks(),
        )
    }
}

/// Runs both streams at the given scale.
pub fn run(scale: Scale, seed: u64) -> BodyResult {
    run_with(scale, seed, &Executor::default())
}

/// [`run`] on an explicit executor; the two streams fan out as independent
/// trials (shared pinned propagation, per-stream traffic seed).
pub fn run_with(scale: Scale, seed: u64, exec: &Executor) -> BodyResult {
    let mut folds = exec.map_with(
        trials(scale, seed),
        SimScratch::new,
        |scratch, _, (_, trial)| trial.fold_in(scratch),
    );
    let body = folds.pop().expect("body stream");
    let no_body = folds.pop().expect("no-body stream");
    BodyResult { no_body, body }
}

/// The two named streams: unimpaired, then with the person in the path.
pub(crate) fn trials(scale: Scale, seed: u64) -> Vec<(&'static str, PointTrial)> {
    let packets = scale.packets(PAPER_PACKETS);
    let (plan, rx, tx) = layouts::hallway();
    let mut impaired_plan = plan.clone();
    layouts::add_body(&mut impaired_plan);
    [("No body", plan), ("Body", impaired_plan)]
        .into_iter()
        .enumerate()
        .map(|(i, (name, plan))| {
            let trial = PointTrial::new(
                plan,
                pinned_propagation(seed),
                rx,
                tx,
                packets,
                trial_seed(EXPERIMENT_ID, i as u64, seed),
            );
            (name, trial)
        })
        .collect()
}

/// The paper measured these placements once each; its tight per-trial level
/// spreads say the slow fading realization must not vary, so shadowing is
/// pinned to zero and the calibrated wall/distance budget carries the level.
fn pinned_propagation(seed: u64) -> Propagation {
    let mut p = Propagation::indoor(seed);
    p.shadowing_sigma_db = 0.0;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_8_and_9_shape_holds() {
        let result = run(Scale::Smoke, 31);

        // Without the body: clean (paper: 1440 received, 0 everything).
        let no_body = result.no_body.summary("No body");
        assert_eq!(no_body.body_bits_damaged, 0);
        assert!(no_body.packet_loss < 0.005);

        // With the body: loss of a few percent, body damage in the
        // 5–30% range, level down ≈6 units.
        let body = result.body.summary("Body");
        let loss = body.packet_loss;
        assert!((0.003..0.12).contains(&loss), "loss {loss}");
        let damaged = result.body.count(PacketClass::BodyDamaged);
        let dmg_rate = damaged as f64 / body.packets_received as f64;
        assert!((0.03..0.35).contains(&dmg_rate), "damage rate {dmg_rate}");
        let drop = result.body_level_drop();
        assert!((4.5..7.5).contains(&drop), "level drop {drop}");

        // Damaged bits per packet stay small ("a handful").
        let worst = body.worst_body;
        assert!(worst <= 80, "worst {worst}");

        let rendered = result.render();
        assert!(rendered.contains("Table 8"));
        assert!(rendered.contains("Body: Body damaged"));
    }
}
