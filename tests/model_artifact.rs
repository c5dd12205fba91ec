//! Workspace-level tests of the model artifact subsystem: a saved,
//! reloaded model drives the monitor bit-for-bit like the in-memory model
//! it was saved from, and corrupted artifacts fail with typed errors —
//! never panics, never silent acceptance.

use dds::core::report;
use dds::prelude::*;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("dds_model_artifact_{}_{name}", std::process::id()));
    path
}

fn train(seed: u64) -> (dds::core::AnalysisReport, TrainedModel) {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run();
    let ctx = TrainingContext { seed, scale: "test".to_string(), git_sha: String::new() };
    Analysis::new(AnalysisConfig::default()).train(&dataset, &ctx).expect("training")
}

/// Replays every live drive through a monitor built on `bundle` and
/// returns the rendered alert stream.
fn alert_stream(bundle: ModelBundle, live: &Dataset) -> Vec<String> {
    let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
    let mut alerts = Vec::new();
    for drive in live.drives() {
        alerts.extend(monitor.replay(drive.id(), drive.records()));
    }
    alerts.sort_by_key(|a| a.hour);
    alerts.iter().map(|a| a.to_string()).collect()
}

#[test]
fn saved_model_drives_the_monitor_bit_identically() {
    let (_, model) = train(41);
    let path = temp_path("roundtrip.dds");
    model.save(&path).expect("save artifact");
    let reloaded = TrainedModel::load(&path).expect("load artifact");
    let _ = std::fs::remove_file(&path);
    assert_eq!(reloaded, model, "artifact round-trip must be lossless");

    let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(42)).run();
    let cold = alert_stream(ModelBundle::from_trained(&model).expect("cold bundle"), &live);
    let warm = alert_stream(ModelBundle::from_trained(&reloaded).expect("warm bundle"), &live);
    assert!(!cold.is_empty(), "the live fleet must raise alerts");
    assert_eq!(cold, warm, "warm-start alert stream must match the cold one byte for byte");
}

#[test]
fn reloaded_model_renders_the_same_prediction_table() {
    let (analysis, model) = train(43);
    let reloaded = TrainedModel::from_bytes(&model.to_bytes().expect("encode")).expect("decode");
    assert_eq!(
        report::render_prediction_table(&reloaded.prediction_report()),
        report::render_prediction_table(&analysis.prediction),
        "Table III from the artifact must match the fresh analysis byte for byte"
    );
}

#[test]
fn corrupted_artifacts_fail_with_typed_errors() {
    let (_, model) = train(44);
    let bytes = model.to_bytes().expect("encode");

    // A flipped payload byte is a checksum mismatch.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 2;
    flipped[last] ^= 0x40;
    assert!(matches!(TrainedModel::from_bytes(&flipped), Err(ModelError::ChecksumMismatch { .. })));

    // A future format version is rejected as unsupported.
    let text = String::from_utf8(bytes.clone()).expect("artifact is UTF-8");
    let versioned = text.replacen("\"format_version\":1", "\"format_version\":99", 1);
    assert!(matches!(
        TrainedModel::from_bytes(versioned.as_bytes()),
        Err(ModelError::UnsupportedVersion { found: 99, .. })
    ));

    // A truncated file is detected as truncated, at any cut point.
    for keep in [bytes.len() - 1, bytes.len() / 2] {
        assert!(matches!(
            TrainedModel::from_bytes(&bytes[..keep]),
            Err(ModelError::Truncated { .. })
        ));
    }

    // Garbage of every stripe is malformed — never a panic.
    for garbage in ["", "\n", "not json\n", "{\"magic\":\"wrong\"}\npayload"] {
        assert!(matches!(
            TrainedModel::from_bytes(garbage.as_bytes()),
            Err(ModelError::Malformed(_))
        ));
    }
}

#[test]
fn corruption_on_disk_is_caught_at_load_time() {
    let (_, model) = train(45);
    let path = temp_path("corrupt.dds");
    model.save(&path).expect("save artifact");
    let mut bytes = std::fs::read(&path).expect("read artifact");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).expect("rewrite corrupted");
    let err = TrainedModel::load(&path).expect_err("corrupted artifact must not load");
    assert!(
        matches!(err, ModelError::ChecksumMismatch { .. } | ModelError::Malformed(_)),
        "unexpected error class: {err}"
    );
    let _ = std::fs::remove_file(&path);

    // A missing file is a clean I/O error.
    assert!(matches!(TrainedModel::load(&temp_path("never-written.dds")), Err(ModelError::Io(_))));
}

#[test]
fn training_on_messy_data_ships_the_sanitized_statistics() {
    use dds::core::quality::{sanitize_dataset, QualityPolicy, SENTINEL_VALUE};
    use dds::core::CategorizationConfig;

    // One good-drive record carries the missing-value sentinel, which the
    // CSV reader accepts and the quality gate imputes.
    let clean = FleetSimulator::new(FleetConfig::test_scale().with_seed(7)).run();
    let target = clean.good_drives().next().expect("a good drive").id();
    let drives = clean
        .drives()
        .iter()
        .map(|drive| {
            if drive.id() != target {
                return drive.clone();
            }
            let mut records = drive.records().to_vec();
            records[1].values[0] = SENTINEL_VALUE;
            let messy = DriveProfile::new(drive.id(), drive.label(), records);
            match drive.rack() {
                Some(rack) => messy.with_rack(rack),
                None => messy,
            }
        })
        .collect();
    let messy = Dataset::new(drives).expect("messy dataset");
    let (sanitized, _) = sanitize_dataset(&messy, QualityPolicy::default()).expect("sanitize");

    let analysis = Analysis::new(AnalysisConfig {
        categorization: CategorizationConfig { run_svc: false, ..Default::default() },
        ..Default::default()
    });
    let ctx = TrainingContext { seed: 7, scale: "test".to_string(), git_sha: String::new() };
    let (_, from_messy) = analysis.train(&messy, &ctx).expect("train on messy data");
    let (_, from_sanitized) = analysis.train(&sanitized, &ctx).expect("train on sanitized data");

    assert_eq!(from_messy.scaler_mins, from_sanitized.scaler_mins);
    assert_eq!(from_messy.scaler_maxs, from_sanitized.scaler_maxs, "scaler saw the sentinel");
    assert_eq!(
        from_messy.population_means.map(f64::to_bits),
        from_sanitized.population_means.map(f64::to_bits),
        "population means saw the sentinel"
    );
    assert_eq!(from_messy.tc_std.to_bits(), from_sanitized.tc_std.to_bits());
    assert_eq!(from_messy.groups.len(), from_sanitized.groups.len());
    for (m, s) in from_messy.groups.iter().zip(&from_sanitized.groups) {
        assert_eq!(m.tree, s.tree);
    }
}

#[test]
fn predict_body_matches_monitor_body() {
    let dir = temp_path("cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).display().to_string();
    let run = |args: &[&str]| {
        let argv = args.iter().map(|s| s.to_string()).collect();
        dds_cli::run(dds_cli::parse(argv).expect("parse")).expect("run")
    };
    let (train_csv, live_csv, model) = (path("train.csv"), path("live.csv"), path("model.dds"));
    run(&["simulate", "--scale", "test", "--seed", "11", "--out", &train_csv]);
    run(&["simulate", "--scale", "test", "--seed", "22", "--out", &live_csv]);
    run(&["train", "--input", &train_csv, "--save-model", &model]);
    let monitor = run(&["monitor", "--train", &train_csv, "--live", &live_csv]);
    let predict = run(&["predict", "--model", &model, "--live", &live_csv]);
    let _ = std::fs::remove_dir_all(&dir);

    let (header, body) = predict.split_once('\n').expect("predict header line");
    assert!(header.starts_with("loaded model"), "predict header: {header}");
    assert!(monitor.contains("critical alerts in total"), "monitor output: {monitor}");
    assert_eq!(body, monitor, "warm-start predictions must match a fresh retrain byte for byte");
}
