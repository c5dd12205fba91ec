//! Micro-benchmarks of the columnar (SoA) hot kernels:
//!
//! - `columns_build`: transposing the fleet into attribute columns.
//! - `window_distance`: the per-drive distance-to-failure curve and
//!   window extraction — `DegradationAnalyzer::analyze_drive_columns`.
//! - `split_scan`: regression-tree training on one assembled sample set —
//!   `RegressionTree::fit_columns` (presorted column indices + stable
//!   partition).
//! - `zscore_sweep`: the full 12-attribute temporal z-score sweep over
//!   column slices with hoisted reference moments.
//! - `kmeans_assign`: `KMeans::fit` over the fleet's normalized records.
//! - `svc_label`: `Svc::fit` on the categorizer's scaled failure features
//!   at the largest gamma of its SVC sweep, where the segment-test
//!   labeling is nearly all of the fit.
//! - `categorize_svc`: `Categorizer::categorize` with the SVC cross-check
//!   on; its seven SVC fits are most of the stage, and they run from a
//!   shared work queue, so there is one row `Sequential` and one `Auto`.
//!
//! Every kernel has one implementation; the row-major entry points are
//! adapters that transpose into it, so there is no second layout to time.
//! Historical AoS-vs-SoA rows stay in `BENCH_parallel.json`.
//!
//! Usage: `cargo run --release -p dds-bench --bin bench_kernels
//! [--test-scale | --paper-scale] [--out PATH]`

use dds_bench::{Scale, EXPERIMENT_SEED};
use dds_cluster::{KMeans, KMeansConfig, Svc, SvcConfig};
use dds_core::categorize::CategorizationConfig;
use dds_core::columnar::FleetColumns;
use dds_core::degradation::DegradationAnalyzer;
use dds_core::features::FailureRecordSet;
use dds_core::zscore::{all_attribute_z_scores_columns, ZScoreConfig};
use dds_regtree::{RegressionTree, TreeConfig};
use dds_smartsim::FleetSimulator;
use dds_stats::par::Parallelism;
use std::time::Instant;

struct Row {
    kernel: &'static str,
    layout: &'static str,
    threads: usize,
    wall_ms: f64,
    items: usize,
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1_000.0
}

fn main() {
    let scale = Scale::from_args();
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "BENCH_kernels.json".to_string())
    };
    let par = Parallelism::Sequential;
    eprintln!("[bench_kernels] generating {scale:?}-scale fleet");
    let dataset = FleetSimulator::new(scale.fleet_config().with_seed(EXPERIMENT_SEED)).run();
    let records = FailureRecordSet::extract(&dataset, 24).expect("failure records");
    let categorization = dds_core::categorize::Categorizer::new(CategorizationConfig {
        run_svc: false,
        parallelism: par,
        ..Default::default()
    })
    .categorize(&dataset, &records)
    .expect("categorization");

    let mut rows: Vec<Row> = Vec::new();
    let mut columns = None;
    rows.push(Row {
        kernel: "columns_build",
        layout: "soa",
        threads: 1,
        wall_ms: time_ms(|| columns = Some(FleetColumns::build(&dataset, par))),
        items: dataset.num_records(),
    });
    let columns = columns.expect("built");

    // --- window_distance kernel -------------------------------------------
    let analyzer = DegradationAnalyzer::default();
    let failed: Vec<_> = dataset.failed_drives().collect();
    rows.push(Row {
        kernel: "window_distance",
        layout: "soa",
        threads: 1,
        wall_ms: time_ms(|| {
            for drive in &failed {
                let pos = columns.position(drive.id()).expect("failed drive in columns");
                analyzer.analyze_drive_columns(&columns, pos).expect("soa analysis");
            }
        }),
        items: failed.len(),
    });

    // --- split_scan kernel -------------------------------------------------
    // One realistic training matrix: every failed record, labeled by its
    // distance from the failure hour (a smooth target the tree can split
    // on), so the fit chews through the same feature distribution the
    // pipeline's predictors see.
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for drive in &failed {
        let last = drive.records().last().expect("non-empty").hour;
        for record in drive.records() {
            xs.push(dataset.normalize_record(record).to_vec());
            ys.push(-((last - record.hour) as f64) / 480.0);
        }
    }
    let tree_config = TreeConfig::default().with_parallelism(par);
    let matrix = dds_stats::ColMatrix::from_rows(&xs).expect("matrix");
    rows.push(Row {
        kernel: "split_scan",
        layout: "soa",
        threads: 1,
        wall_ms: time_ms(|| {
            RegressionTree::fit_columns(&matrix, &ys, &tree_config).expect("soa fit");
        }),
        items: xs.len(),
    });

    // --- zscore_sweep kernel -----------------------------------------------
    let zconfig = ZScoreConfig::default();
    rows.push(Row {
        kernel: "zscore_sweep",
        layout: "soa",
        threads: 1,
        wall_ms: time_ms(|| {
            all_attribute_z_scores_columns(&columns, &records, &categorization, &zconfig, par)
                .expect("soa sweep");
        }),
        items: 12,
    });

    // --- kmeans_assign kernel ----------------------------------------------
    let points: Vec<Vec<f64>> = records.scaled_features().to_vec();
    let mut kmeans_config = KMeansConfig::new(3.min(points.len())).with_seed(EXPERIMENT_SEED);
    kmeans_config.restarts = 4;
    kmeans_config.parallelism = par;
    rows.push(Row {
        kernel: "kmeans_assign",
        layout: "soa",
        threads: 1,
        wall_ms: time_ms(|| {
            KMeans::new(kmeans_config).fit(&points).expect("kmeans");
        }),
        items: points.len(),
    });

    // --- svc_label and categorize_svc kernels --------------------------------
    // The categorizer sweeps gamma up to 32× the data-driven base width;
    // the widest sweep point has the most support vectors.
    let gamma = 32.0 * dds_cluster::svc::suggest_gamma(&points).expect("base width");
    let config = SvcConfig::new().with_seed(CategorizationConfig::default().seed).with_gamma(gamma);
    rows.push(Row {
        kernel: "svc_label",
        layout: "lanes",
        threads: 1,
        wall_ms: time_ms(|| {
            Svc::new(config).fit(&points).expect("svc");
        }),
        items: points.len(),
    });
    for mode in [Parallelism::Sequential, Parallelism::Auto] {
        let config = CategorizationConfig { parallelism: mode, ..Default::default() };
        rows.push(Row {
            kernel: "categorize_svc",
            layout: "queue",
            threads: mode.effective_threads(),
            wall_ms: time_ms(|| {
                let categorizer = dds_core::categorize::Categorizer::new(config);
                categorizer.categorize(&dataset, &records).expect("categorization");
            }),
            items: points.len(),
        });
    }

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"seed\": {},\n  \"cores\": {},\n  \"kernels\": [\n",
        match scale {
            Scale::Test => "test",
            Scale::Bench => "bench",
            Scale::Paper => "paper",
        },
        EXPERIMENT_SEED,
        cores
    ));
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"layout\": \"{}\", \"threads\": {}, \"wall_ms\": {:.1}, \
             \"items\": {}}}{}\n",
            row.kernel,
            row.layout,
            row.threads,
            row.wall_ms,
            row.items,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write kernel benchmark JSON");
    eprintln!("[bench_kernels] wrote {out_path}");
    print!("{json}");
}
