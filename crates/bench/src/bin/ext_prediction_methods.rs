//! Extension (§VI future work): compare prediction methods for degradation
//! forecasting — the paper's regression tree vs a k-NN regressor — on the
//! same per-group sample sets and splits.
use dds_bench::{run_standard, section, Scale};
use dds_core::columnar::FleetColumns;
use dds_core::knn::KnnRegressor;
use dds_core::predict::{DegradationPredictor, PredictionConfig};
use dds_regtree::RegressionTree;
use dds_stats::par::Parallelism;
use dds_stats::rmse;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let (dataset, report) = run_standard(Scale::from_args());
    section("Extension — prediction-method comparison (regression tree vs k-NN)");
    let config = PredictionConfig::default();
    let predictor = DegradationPredictor::new(config.clone());
    let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
    let mut rng = StdRng::seed_from_u64(config.seed);
    println!(
        "  {:<8} {:>12} {:>12} {:>12} {:>10}",
        "group", "tree RMSE", "kNN-5 RMSE", "kNN-15 RMSE", "samples"
    );
    for group in report.categorization.groups() {
        let summary = &report.degradation[group.index];
        let signature = report.prediction.groups[group.index].signature;
        let (xs, ys) =
            predictor.assemble_samples(&columns, group, &signature, &mut rng).expect("samples");
        let _ = summary;
        // Same 70/30 split for every method.
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.shuffle(&mut rng);
        let cut = (xs.len() as f64 * 0.7) as usize;
        let (train_idx, test_idx) = order.split_at(cut.clamp(1, xs.len() - 1));
        let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| xs[i].clone()).collect();
        let train_y: Vec<f64> = train_idx.iter().map(|&i| ys[i]).collect();
        let test_x: Vec<Vec<f64>> = test_idx.iter().map(|&i| xs[i].clone()).collect();
        let test_y: Vec<f64> = test_idx.iter().map(|&i| ys[i]).collect();

        let tree = RegressionTree::fit(&train_x, &train_y, &config.tree).expect("tree");
        let tree_rmse = rmse(&tree.predict_batch(&test_x), &test_y).expect("rmse");
        let mut knn_rmse = Vec::new();
        for k in [5usize, 15] {
            let knn = KnnRegressor::fit(train_x.clone(), train_y.clone(), k).expect("knn");
            let pred = knn.predict_batch(&test_x).expect("predict");
            knn_rmse.push(rmse(&pred, &test_y).expect("rmse"));
        }
        println!(
            "  Group {} {:>12.4} {:>12.4} {:>12.4} {:>10}",
            group.index + 1,
            tree_rmse,
            knn_rmse[0],
            knn_rmse[1],
            xs.len()
        );
    }
    println!();
    println!("The paper chose the tree for cost-effectiveness and interpretability");
    println!("(§V-B); k-NN is the non-parametric reference the future work asks for.");
}
