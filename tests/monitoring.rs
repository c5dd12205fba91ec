//! Integration tests of the §VI monitoring middleware through the façade:
//! train on one fleet, monitor another, and check the operational story
//! end to end.

use dds::prelude::*;
use dds_monitor::{AlertKind, Severity};

fn trained_monitor(train_seed: u64) -> FleetMonitor {
    let training = FleetSimulator::new(FleetConfig::test_scale().with_seed(train_seed)).run();
    let (_, model) = Analysis::new(AnalysisConfig::default())
        .train(&training, &TrainingContext::default())
        .unwrap();
    let bundle = ModelBundle::from_trained(&model).unwrap();
    FleetMonitor::new(bundle, MonitorConfig::default())
}

#[test]
fn cross_fleet_monitoring_catches_every_failure_type() {
    let mut monitor = trained_monitor(42_001);
    let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(42_002)).run();
    for mode in FailureMode::ALL {
        let mut covered = 0usize;
        let mut total = 0usize;
        for drive in live.failed_drives() {
            if drive.label().failure_mode() != Some(mode) {
                continue;
            }
            total += 1;
            if !monitor.replay(drive.id(), drive.records()).is_empty() {
                covered += 1;
            }
        }
        assert!(
            covered as f64 / total.max(1) as f64 > 0.8,
            "{mode}: alert coverage {covered}/{total}"
        );
    }
}

#[test]
fn alerts_name_the_right_failure_type_for_mechanical_failures() {
    let mut monitor = trained_monitor(42_003);
    let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(42_004)).run();
    let mut correct = 0usize;
    let mut total = 0usize;
    for drive in live.failed_drives() {
        let Some(mode) = drive.label().failure_mode() else { continue };
        if mode == FailureMode::Logical {
            continue;
        }
        let alerts = monitor.replay(drive.id(), drive.records());
        let Some(critical) = alerts.iter().find(|a| {
            a.severity == Severity::Critical && a.kind == AlertKind::DegradationPrediction
        }) else {
            continue;
        };
        total += 1;
        if critical.suspected_type.as_mode() == Some(mode) {
            correct += 1;
        }
    }
    assert!(total > 10, "need critical alerts to grade ({total})");
    assert!(correct as f64 / total as f64 > 0.8, "type attribution {correct}/{total}");
}

#[test]
fn interleaved_ingestion_matches_per_drive_replay() {
    // Alerts must not depend on drive interleaving.
    let live = FleetSimulator::new(
        FleetConfig::test_scale().with_good_drives(10).with_failed_drives(6).with_seed(42_005),
    )
    .run();

    let mut replay_monitor = trained_monitor(42_006);
    let mut per_drive: Vec<(u32, Severity)> = Vec::new();
    for drive in live.drives() {
        for alert in replay_monitor.replay(drive.id(), drive.records()) {
            per_drive.push((alert.drive.0, alert.severity));
        }
    }

    let mut interleaved_monitor = trained_monitor(42_006);
    let mut interleaved: Vec<(u32, Severity)> = Vec::new();
    let max_len = live.drives().iter().map(|d| d.records().len()).max().unwrap();
    for i in 0..max_len {
        for drive in live.drives() {
            if let Some(record) = drive.records().get(i) {
                for alert in interleaved_monitor.ingest(drive.id(), record) {
                    interleaved.push((alert.drive.0, alert.severity));
                }
            }
        }
    }

    per_drive.sort_unstable();
    interleaved.sort_unstable();
    assert_eq!(per_drive, interleaved);
}

#[test]
fn monitor_state_is_clonable_for_checkpointing() {
    let live = FleetSimulator::new(
        FleetConfig::test_scale().with_good_drives(5).with_failed_drives(3).with_seed(42_007),
    )
    .run();
    let mut monitor = trained_monitor(42_008);
    let drive = live.failed_drives().next().unwrap();
    let half = drive.records().len() / 2;
    monitor.replay(drive.id(), &drive.records()[..half]);
    // A checkpointed clone must continue identically.
    let mut resumed = monitor.clone();
    let a = monitor.replay(drive.id(), &drive.records()[half..]);
    let b = resumed.replay(drive.id(), &drive.records()[half..]);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.severity, y.severity);
        assert_eq!(x.hour, y.hour);
    }
}
