//! Registry completeness: every experiment is reachable by name, budgets
//! are honest, and the registry's static tables stay in sync.

use std::collections::HashSet;
use wavelan_core::{registry, Executor, Scale};

/// Canonical names and aliases never collide.
#[test]
fn names_and_aliases_are_unique() {
    let mut seen = HashSet::new();
    for e in registry::REGISTRY {
        assert!(
            seen.insert(e.artifact_name()),
            "duplicate artifact name {}",
            e.artifact_name()
        );
        for alias in e.aliases() {
            assert!(seen.insert(alias), "duplicate alias {alias}");
        }
    }
}

/// `NAMES` lists the registry in order, and every name and alias resolves
/// back to its own entry through `find`.
#[test]
fn every_name_round_trips_through_lookup() {
    assert_eq!(registry::NAMES.len(), registry::REGISTRY.len());
    for (name, entry) in registry::NAMES.iter().zip(registry::REGISTRY.iter()) {
        assert_eq!(*name, entry.artifact_name());
        let found = registry::find(name).expect("canonical name resolves");
        assert_eq!(found.artifact_name(), entry.artifact_name());
        for alias in entry.aliases() {
            let found = registry::find(alias).expect("alias resolves");
            assert_eq!(found.artifact_name(), entry.artifact_name());
        }
    }
    assert!(registry::find("no-such-artifact").is_none());
}

/// Every entry runs at smoke scale and reports the packet budget it
/// promised.
#[test]
fn every_entry_runs_at_smoke_scale() {
    let exec = Executor::default();
    for e in registry::REGISTRY {
        let report = e.run(Scale::Smoke, 1996, &exec);
        assert_eq!(report.artifact, e.artifact_name());
        assert_eq!(report.paper_artifact, e.paper_artifact());
        assert_eq!(
            report.packets,
            e.packet_budget(Scale::Smoke),
            "{}: report/budget mismatch",
            e.artifact_name()
        );
        assert!(
            !report.title.is_empty(),
            "{}: empty title",
            e.artifact_name()
        );
        assert!(
            !report.render().is_empty(),
            "{}: empty render",
            e.artifact_name()
        );
    }
}

/// The advertised packet budget equals the transmissions the simulator
/// actually counted — the budget is requested transmissions, not an
/// estimate. Streamed drivers report the count their fold recorded;
/// buffered ones the count on their trace analysis.
#[test]
fn budgets_match_sim_counted_transmissions() {
    use wavelan_core::experiments::{body, in_room, multiroom, narrowband, path_loss, walls};

    let exec = Executor::default();
    let scale = Scale::Smoke;
    let seed = 1996;
    let budget = |name: &str| registry::find(name).unwrap().packet_budget(scale);

    let in_room_result = in_room::run_with(scale, seed, &exec);
    let in_room_tx: u64 = in_room_result
        .trials
        .iter()
        .map(|t| t.packets_transmitted)
        .sum();
    assert_eq!(in_room_tx, budget("table2"));

    let path_loss_result = path_loss::run_with(&[], scale.packets(1_440), seed, &exec);
    let path_loss_tx: u64 = path_loss_result
        .samples
        .iter()
        .map(|s| s.packets_transmitted)
        .sum();
    assert_eq!(path_loss_tx, budget("figure1"));

    let walls_result = walls::run_with(scale, seed, &exec);
    let walls_tx: u64 = walls_result
        .trials
        .iter()
        .map(|t| t.analysis.transmitted())
        .sum();
    assert_eq!(walls_tx, budget("table4"));

    let body_result = body::run_with(scale, seed, &exec);
    assert_eq!(
        body_result.no_body.transmitted() + body_result.body.transmitted(),
        budget("table8-9")
    );

    let narrowband_result = narrowband::run_with(scale, seed, &exec);
    let narrowband_tx: u64 = narrowband_result
        .trials
        .iter()
        .map(|t| t.analysis.transmitted)
        .sum();
    assert_eq!(narrowband_tx, budget("table10"));

    let multiroom_result = multiroom::run_with(scale, seed, &exec);
    let multiroom_tx: u64 = multiroom_result
        .locations
        .iter()
        .map(|l| l.analysis.transmitted())
        .sum();
    assert_eq!(multiroom_tx, budget("table5-7"));
}
