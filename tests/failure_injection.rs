//! Failure injection: corrupt inputs, degenerate datasets and hostile
//! telemetry must produce clean errors (or sensible results), never panics.

use dds::prelude::*;
use dds_core::CategorizationConfig;
use dds_smartsim::dataset::{DriveId, DriveProfile};
use dds_smartsim::io::read_csv;
use dds_smartsim::NUM_ATTRIBUTES;
use proptest::prelude::*;

fn record(hour: u32, fill: f64) -> HealthRecord {
    HealthRecord { hour, values: [fill; NUM_ATTRIBUTES] }
}

fn config_without_svc() -> AnalysisConfig {
    AnalysisConfig {
        categorization: CategorizationConfig { run_svc: false, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn nan_telemetry_is_rejected_at_assembly() {
    let drive =
        DriveProfile::new(DriveId(0), DriveLabel::Good, vec![record(0, 1.0), record(1, f64::NAN)]);
    assert!(Dataset::new(vec![drive]).is_err());
}

#[test]
fn single_record_failed_drives_fail_feature_extraction_cleanly() {
    let failed = DriveProfile::new(
        DriveId(0),
        DriveLabel::Failed(FailureMode::Logical),
        vec![record(0, 1.0)],
    );
    let good =
        DriveProfile::new(DriveId(1), DriveLabel::Good, vec![record(0, 0.0), record(1, 2.0)]);
    let dataset = Dataset::new(vec![failed, good]).unwrap();
    let err = Analysis::new(config_without_svc()).run(&dataset).unwrap_err();
    assert!(err.to_string().contains("fewer than 2 records"), "{err}");
}

#[test]
fn constant_telemetry_survives_the_pipeline_or_errors_cleanly() {
    // Every drive reports identical constants: normalization degenerates to
    // zeros, clustering has nothing to split on — any outcome is fine as
    // long as it is not a panic.
    let drives: Vec<DriveProfile> = (0..30)
        .map(|i| {
            let label =
                if i < 10 { DriveLabel::Failed(FailureMode::Logical) } else { DriveLabel::Good };
            let records = (0..50).map(|h| record(h, 5.0)).collect();
            DriveProfile::new(DriveId(i), label, records)
        })
        .collect();
    let dataset = Dataset::new(drives).unwrap();
    let _ = Analysis::new(config_without_svc()).run(&dataset);
}

#[test]
fn adversarial_extreme_values_do_not_break_analysis() {
    // One drive reports absurd magnitudes, squashing everyone else's
    // normalized range.
    let mut fleet = FleetSimulator::new(
        FleetConfig::test_scale().with_good_drives(30).with_failed_drives(12).with_seed(77),
    )
    .run()
    .drives()
    .to_vec();
    let spiky: Vec<HealthRecord> = (0..60)
        .map(|h| {
            let mut r = record(h, 0.0);
            r.values[0] = 1e12;
            r.values[8] = -1e12;
            r
        })
        .collect();
    fleet.push(DriveProfile::new(DriveId(9_999), DriveLabel::Good, spiky));
    let dataset = Dataset::new(fleet).unwrap();
    // The run may or may not keep three groups, but it must complete.
    let report = Analysis::new(config_without_svc()).run(&dataset).unwrap();
    assert!(report.categorization.num_groups() >= 1);
}

#[test]
fn monitor_survives_hostile_streams() {
    let training = FleetSimulator::new(FleetConfig::test_scale().with_seed(78)).run();
    let (_, model) =
        Analysis::new(config_without_svc()).train(&training, &TrainingContext::default()).unwrap();
    let bundle = ModelBundle::from_trained(&model).unwrap();
    let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
    // Out-of-range values, zeros, huge spikes, duplicated hours.
    for (i, fill) in
        [(0u32, -1e9), (1, 1e9), (2, 0.0), (2, 0.0), (3, f64::MAX / 2.0)].into_iter().enumerate()
    {
        let _ = monitor.ingest(DriveId(1), &record(fill.0, fill.1));
        let _ = i;
    }
    assert_eq!(monitor.drives_tracked(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_parser_never_panics_on_garbage(input in ".{0,400}") {
        let _ = read_csv(input.as_bytes());
    }

    #[test]
    fn csv_parser_never_panics_on_almost_valid_rows(
        id in 0u32..5,
        hour in 0u32..100,
        label in prop::sample::select(vec!["good", "failed", "failed:logical failures", "weird"]),
        values in prop::collection::vec(-1e9..1e9f64, 0..15),
    ) {
        let cells: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        let line = format!("{id},{label},{hour},{}", cells.join(","));
        let _ = read_csv(line.as_bytes());
    }

    #[test]
    fn monitor_ingest_never_panics(
        hours in prop::collection::vec(0u32..500, 1..40),
        fills in prop::collection::vec(-1e6..1e6f64, 1..40),
    ) {
        // A tiny, cheap bundle: constant scaler bounds and no group models
        // exercises the bundle-empty path too.
        let scaler = dds_stats::MinMaxScaler::from_bounds(
            &[0.0; NUM_ATTRIBUTES],
            &[100.0; NUM_ATTRIBUTES],
        )
        .unwrap();
        let bundle = ModelBundle::new(scaler, Vec::new(), [50.0; NUM_ATTRIBUTES], 1.0);
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
        for (h, f) in hours.iter().zip(&fills) {
            let _ = monitor.ingest(DriveId(0), &record(*h, *f));
        }
    }
}
