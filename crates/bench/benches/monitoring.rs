//! Benchmarks of the streaming monitor: per-record ingest cost and
//! whole-fleet replay throughput.
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dds_core::categorize::CategorizationConfig;
use dds_core::{Analysis, AnalysisConfig, TrainingContext};
use dds_monitor::{FleetMonitor, ModelBundle, MonitorConfig};
use dds_smartsim::{FleetConfig, FleetSimulator};
use std::hint::black_box;

fn bench_monitor(c: &mut Criterion) {
    let training = FleetSimulator::new(FleetConfig::test_scale().with_seed(23)).run();
    let config = AnalysisConfig {
        categorization: CategorizationConfig { run_svc: false, ..Default::default() },
        ..Default::default()
    };
    let (_, model) = Analysis::new(config).train(&training, &TrainingContext::default()).unwrap();
    let bundle = ModelBundle::from_trained(&model).unwrap();
    let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(24)).run();
    let drive = live.failed_drives().next().unwrap();

    let mut group = c.benchmark_group("monitor");
    group.throughput(Throughput::Elements(1));
    group.bench_function("ingest_one_record", |b| {
        let mut monitor = FleetMonitor::new(bundle.clone(), MonitorConfig::default());
        let record = &drive.records()[0];
        b.iter(|| black_box(monitor.ingest(drive.id(), record)))
    });
    group.throughput(Throughput::Elements(drive.records().len() as u64));
    group.bench_function("replay_one_drive", |b| {
        b.iter(|| {
            let mut monitor = FleetMonitor::new(bundle.clone(), MonitorConfig::default());
            black_box(monitor.replay(drive.id(), drive.records()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_monitor);
criterion_main!(benches);
