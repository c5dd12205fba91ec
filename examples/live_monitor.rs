//! Live monitoring: train the paper's models on one fleet, deploy them as
//! a streaming monitor (the §VI middleware), and replay a *different*
//! fleet's telemetry hour by hour, printing the alert log.
//!
//! ```text
//! cargo run --release --example live_monitor
//! ```

use dds::prelude::*;
use dds_monitor::Severity;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train on last quarter's fleet...
    let training = FleetSimulator::new(FleetConfig::test_scale().with_seed(111)).run();
    let ctx = TrainingContext { seed: 111, scale: "test".to_string(), git_sha: String::new() };
    let (_, model) = Analysis::new(AnalysisConfig::default()).train(&training, &ctx)?;
    let bundle = ModelBundle::from_trained(&model)?;
    println!(
        "trained bundle: {} group models, scaler over {} attributes",
        bundle.groups().len(),
        bundle.scaler().num_columns()
    );

    // ...deploy against this quarter's fleet.
    let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(222)).run();
    let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());

    let mut log = Vec::new();
    for drive in live.drives() {
        for record in drive.records() {
            for alert in monitor.ingest(drive.id(), record) {
                log.push(alert);
            }
        }
    }
    log.sort_by_key(|a| a.hour);

    println!("\nalert log ({} alerts, showing the first 25):", log.len());
    for alert in log.iter().take(25) {
        println!("  {alert}");
    }

    let critical = log.iter().filter(|a| a.severity == Severity::Critical).count();
    let failed = live.failed_drives().count();
    println!("\n{critical} critical alerts across {failed} drives that actually failed;");
    println!("{} drives under monitoring state.", monitor.drives_tracked());
    Ok(())
}
