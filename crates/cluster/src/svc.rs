//! Support vector clustering (Ben-Hur, Horn, Siegelmann & Vapnik, 2001).
//!
//! §IV-B of the paper clusters the failure records with both K-means and
//! SVC and reports that the two "generate the same results". SVC maps the
//! data into an RBF feature space, finds the minimal enclosing sphere of
//! the images (a quadratic program solved here with SMO-style pairwise
//! coordinate descent), and labels clusters as the connected components of
//! the graph in which two points are adjacent when the whole line segment
//! between them stays inside the sphere's pre-image contour.

use dds_stats::{squared_euclidean, StatsError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`Svc`].
///
/// # Example
///
/// ```
/// use dds_cluster::SvcConfig;
///
/// let config = SvcConfig::new().with_gamma(0.5).with_soft_margin(1.0);
/// assert_eq!(config.gamma, Some(0.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SvcConfig {
    /// RBF kernel width `K(a, b) = exp(−gamma · ‖a − b‖²)`. `None` picks
    /// `1 / median pairwise squared distance` from the data.
    pub gamma: Option<f64>,
    /// Upper bound `C` on the dual coefficients; `C ≥ 1` forbids bounded
    /// support vectors (no outliers), smaller values allow them.
    pub soft_margin: f64,
    /// Number of interpolation samples per segment in the labeling step.
    pub segment_samples: usize,
    /// Maximum SMO sweeps.
    pub max_sweeps: usize,
    /// Convergence threshold on the duality-style objective change.
    pub tolerance: f64,
    /// RNG seed (pair selection order).
    pub seed: u64,
}

impl SvcConfig {
    /// Defaults: data-driven gamma, hard margin (`C = 1`), 12 segment
    /// samples, 200 sweeps.
    pub fn new() -> Self {
        SvcConfig {
            gamma: None,
            soft_margin: 1.0,
            segment_samples: 12,
            max_sweeps: 200,
            tolerance: 1e-10,
            seed: 0x5FC,
        }
    }

    /// Sets an explicit RBF width.
    #[must_use]
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = Some(gamma);
        self
    }

    /// Sets the soft-margin bound `C`.
    #[must_use]
    pub fn with_soft_margin(mut self, c: f64) -> Self {
        self.soft_margin = c;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig::new()
    }
}

/// The support vector clustering algorithm.
#[derive(Debug, Clone)]
pub struct Svc {
    config: SvcConfig,
}

impl Svc {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: SvcConfig) -> Self {
        Svc { config }
    }

    /// Clusters `points`, returning per-point labels (0-based, dense).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for no points,
    /// [`StatsError::DimensionMismatch`] for ragged rows, and
    /// [`StatsError::InvalidParameter`] for a non-finite coordinate, a
    /// non-positive or non-finite `gamma`, or a `soft_margin` that is NaN
    /// or below `1/n` (which makes the QP infeasible).
    pub fn fit(&self, points: &[Vec<f64>]) -> Result<SvcResult, StatsError> {
        self.fit_with(points, |contour, sets, stats| contour.connect(sets, stats))
    }

    /// [`fit`](Self::fit) with the segment-test pass supplied by the
    /// caller, so tests can swap in the classic loop.
    fn fit_with(
        &self,
        points: &[Vec<f64>],
        connect: impl FnOnce(&Contour<'_>, &mut DisjointSets, &mut LabelStats),
    ) -> Result<SvcResult, StatsError> {
        if points.is_empty() || points[0].is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let n = points.len();
        let dim = points[0].len();
        for p in points {
            if p.len() != dim {
                return Err(StatsError::DimensionMismatch { expected: dim, actual: p.len() });
            }
        }
        check_finite(points)?;
        let c = self.config.soft_margin;
        if c.is_nan() || c <= 0.0 || c * (n as f64) < 1.0 {
            return Err(StatsError::InvalidParameter(format!(
                "soft margin C = {c} cannot satisfy the sum-to-one constraint for n = {n}"
            )));
        }
        let gamma = match self.config.gamma {
            Some(g) => g,
            None => default_gamma(points)?,
        };
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(StatsError::InvalidParameter(format!(
                "gamma must be positive and finite, got {gamma}"
            )));
        }
        let _span = dds_obs::span!(dds_obs::Level::Debug, "svc.fit", points = n, dims = dim);

        // Kernel matrix (RBF: diagonal is 1).
        let mut kernel = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            kernel[i][i] = 1.0;
            for j in (i + 1)..n {
                let k = (-gamma * squared_euclidean(&points[i], &points[j])?).exp();
                kernel[i][j] = k;
                kernel[j][i] = k;
            }
        }

        // --- SMO-style pairwise descent on beta' K beta ------------------
        let mut beta = vec![1.0 / n as f64; n];
        // g[i] = (K beta)_i
        let mut g: Vec<f64> =
            (0..n).map(|i| kernel[i].iter().zip(&beta).map(|(k, b)| k * b).sum()).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut objective: f64 = beta.iter().zip(&g).map(|(b, gi)| b * gi).sum();
        for _ in 0..self.config.max_sweeps {
            for i in 0..n {
                let j = rng.random_range(0..n);
                if i == j {
                    continue;
                }
                let denom = kernel[i][i] + kernel[j][j] - 2.0 * kernel[i][j];
                if denom <= 1e-15 {
                    continue;
                }
                let s = beta[i] + beta[j];
                let lo = (s - c).max(0.0);
                let hi = s.min(c).max(lo);
                let new_bi = (beta[i] + (g[j] - g[i]) / denom).clamp(lo, hi);
                let delta = new_bi - beta[i];
                if delta.abs() < 1e-15 {
                    continue;
                }
                // Guard against floating-point drift below zero / above C.
                beta[i] = new_bi.clamp(0.0, c);
                beta[j] = (s - new_bi).clamp(0.0, c);
                for k in 0..n {
                    g[k] += delta * (kernel[i][k] - kernel[j][k]);
                }
            }
            let new_objective: f64 = beta.iter().zip(&g).map(|(b, gi)| b * gi).sum();
            if (objective - new_objective).abs() < self.config.tolerance {
                objective = new_objective;
                break;
            }
            objective = new_objective;
        }

        // Sphere radius²: evaluated at margin support vectors
        // (0 < beta < C). R²(x) = 1 − 2 Σ β_i K(x_i, x) + β'Kβ.
        let quad = objective;
        let eps = 1e-7;
        let sv: Vec<usize> = (0..n).filter(|&i| beta[i] > eps).collect();
        let margin_sv: Vec<usize> = sv.iter().copied().filter(|&i| beta[i] < c - eps).collect();
        let radius_set = if margin_sv.is_empty() { &sv } else { &margin_sv };
        let radius2 =
            radius_set.iter().map(|&i| 1.0 - 2.0 * g[i] + quad).fold(0.0f64, f64::max).max(0.0);

        // --- cluster labeling via segment sampling + union-find ----------
        let tol = 1e-6 + radius2 * 1e-3;
        let bound = radius2 + tol;
        let inside: Vec<bool> = (0..n).map(|i| 1.0 - 2.0 * g[i] + quad <= bound).collect();
        let contour = Contour {
            points,
            sv: &sv,
            beta: &beta,
            gamma,
            quad,
            bound,
            samples: self.config.segment_samples.max(2),
            inside: &inside,
        };
        let mut sets = DisjointSets::new(n);
        let mut stats = LabelStats::default();
        connect(&contour, &mut sets, &mut stats);
        dds_obs::event!(
            dds_obs::Level::Debug,
            "svc.labels",
            support_vectors = sv.len(),
            segment_tests = stats.segment_tests,
            midpoint_evals = stats.midpoint_evals,
            kernel_terms = stats.kernel_terms,
        );
        // Bounded SVs / outliers: attach to the nearest inside point's
        // component.
        for i in 0..n {
            if inside[i] {
                continue;
            }
            let mut best = (usize::MAX, f64::INFINITY);
            for j in 0..n {
                if !inside[j] {
                    continue;
                }
                let d = squared_euclidean(&points[i], &points[j])?;
                if d < best.1 {
                    best = (j, d);
                }
            }
            if best.0 != usize::MAX {
                sets.union(i, best.0);
            }
        }
        // Dense labels.
        let mut labels = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut roots: Vec<(usize, usize)> = Vec::new();
        for (i, label_slot) in labels.iter_mut().enumerate() {
            let r = sets.find(i);
            let label = match roots.iter().find(|&&(root, _)| root == r) {
                Some(&(_, l)) => l,
                None => {
                    roots.push((r, next));
                    next += 1;
                    next - 1
                }
            };
            *label_slot = label;
        }
        Ok(SvcResult { labels, num_clusters: next, gamma, radius2, support_vectors: sv })
    }
}

/// Union-find over point indices with path halving.
struct DisjointSets {
    parent: Vec<usize>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets { parent: (0..n).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra] = rb;
    }
}

/// Work done by one labeling pass, counted locally and reported once per
/// fit.
#[derive(Debug, Default)]
struct LabelStats {
    segment_tests: u64,
    midpoint_evals: u64,
    kernel_terms: u64,
}

/// The solved sphere as the labeling step sees it: a point `x` is inside
/// when `R²(x) = 1 − 2 Σ β_i K(x_i, x) + β'Kβ ≤ bound`.
struct Contour<'a> {
    points: &'a [Vec<f64>],
    /// Support-vector indices, ascending: the order `R²` sums in.
    sv: &'a [usize],
    beta: &'a [f64],
    gamma: f64,
    quad: f64,
    /// `radius² + tol`.
    bound: f64,
    samples: usize,
    /// Whether each point's own image lies inside the sphere.
    inside: &'a [bool],
}

/// Support vectors per block: the lanes of one distance pass.
const LANES: usize = 8;

/// The support vectors gathered once, block-transposed: block `b` holds
/// SVs `b·LANES ..` as `dim` rows of `LANES` coordinates, so one pass over
/// a midpoint's dimensions yields `LANES` squared distances. Padding
/// lanes of the last block hold zeros and are never read back.
struct SvBlocks {
    dim: usize,
    rows: Vec<[f64; LANES]>,
    beta: Vec<f64>,
}

impl SvBlocks {
    fn gather(contour: &Contour<'_>) -> Self {
        let dim = contour.points[0].len();
        let blocks = contour.sv.len().div_ceil(LANES);
        let mut rows = vec![[0.0; LANES]; blocks * dim];
        for (k, &i) in contour.sv.iter().enumerate() {
            let (block, lane) = (k / LANES, k % LANES);
            for (d, &x) in contour.points[i].iter().enumerate() {
                rows[block * dim + d][lane] = x;
            }
        }
        let beta = contour.sv.iter().map(|&i| contour.beta[i]).collect();
        SvBlocks { dim, rows, beta }
    }

    /// Whether `R²(x) ≤ bound`, bit-for-bit the decision of the full
    /// sum. Each lane adds its dimensions in order, so every squared
    /// distance has the bits of the scalar sum; the kernel terms are
    /// added in SV order. Every term is ≥ 0, so the partial `R²` only
    /// falls as terms are added: once it is within `bound`, the full one
    /// is too, and the rest of the SVs are skipped.
    fn inside(&self, x: &[f64], contour: &Contour<'_>, stats: &mut LabelStats) -> bool {
        let mut k_sum = 0.0;
        for (block, betas) in self.rows.chunks_exact(self.dim).zip(self.beta.chunks(LANES)) {
            let mut d2 = [0.0f64; LANES];
            for (&xd, row) in x.iter().zip(block) {
                for (acc, &p) in d2.iter_mut().zip(row) {
                    let diff = xd - p;
                    *acc += diff * diff;
                }
            }
            for (&beta, &d2) in betas.iter().zip(&d2) {
                k_sum += beta * (-contour.gamma * d2).exp();
            }
            stats.kernel_terms += betas.len() as u64;
            if 1.0 - 2.0 * k_sum + contour.quad <= contour.bound {
                return true;
            }
        }
        1.0 - 2.0 * k_sum + contour.quad <= contour.bound
    }
}

impl Contour<'_> {
    /// Whether the segment from point `i` to point `j` stays inside the
    /// contour at every interior sample.
    fn segment_inside(
        &self,
        blocks: &SvBlocks,
        i: usize,
        j: usize,
        mid: &mut [f64],
        stats: &mut LabelStats,
    ) -> bool {
        stats.segment_tests += 1;
        let (a, b) = (&self.points[i], &self.points[j]);
        for step in 1..self.samples {
            let t = step as f64 / self.samples as f64;
            for ((m, &x), &y) in mid.iter_mut().zip(a).zip(b) {
                *m = x + t * (y - x);
            }
            stats.midpoint_evals += 1;
            if !blocks.inside(mid, self, stats) {
                return false;
            }
        }
        true
    }

    /// Joins every pair of inside points whose segment stays inside, in
    /// row order, skipping pairs already in one component: the classic
    /// loop's segment tests, each made with [`SvBlocks::inside`].
    fn connect(&self, sets: &mut DisjointSets, stats: &mut LabelStats) {
        let n = self.points.len();
        let blocks = SvBlocks::gather(self);
        let mut mid = vec![0.0; self.points[0].len()];
        for i in 0..n {
            if !self.inside[i] {
                continue;
            }
            for j in (i + 1)..n {
                if !self.inside[j] || sets.find(i) == sets.find(j) {
                    continue;
                }
                if self.segment_inside(&blocks, i, j, &mut mid, stats) {
                    sets.union(i, j);
                }
            }
        }
    }
}

/// Rejects NaN and infinite coordinates.
fn check_finite(points: &[Vec<f64>]) -> Result<(), StatsError> {
    match points.iter().flatten().find(|x| !x.is_finite()) {
        Some(x) => Err(StatsError::InvalidParameter(format!("non-finite coordinate {x}"))),
        None => Ok(()),
    }
}

/// Data-driven default RBF width: the reciprocal of the median pairwise
/// squared distance (subsampled for large inputs).
///
/// SVC with this width often yields a single cluster on well-separated
/// data; the classic procedure *increases* gamma until cluster structure
/// appears (Ben-Hur et al. §4). [`suggest_gamma`] exposes the base value so
/// callers can run that sweep.
///
/// # Errors
///
/// Propagates distance shape errors and returns
/// [`StatsError::InvalidParameter`] for a non-finite coordinate.
pub fn suggest_gamma(points: &[Vec<f64>]) -> Result<f64, StatsError> {
    check_finite(points)?;
    default_gamma(points)
}

fn default_gamma(points: &[Vec<f64>]) -> Result<f64, StatsError> {
    let n = points.len();
    if n == 1 {
        return Ok(1.0);
    }
    let stride = (n / 200).max(1);
    let mut d2: Vec<f64> = Vec::new();
    let mut i = 0;
    while i < n {
        let mut j = i + stride;
        while j < n {
            d2.push(squared_euclidean(&points[i], &points[j])?);
            j += stride;
        }
        i += stride;
    }
    if d2.is_empty() {
        return Ok(1.0);
    }
    d2.sort_by(f64::total_cmp);
    let median = d2[d2.len() / 2];
    Ok(if median > 0.0 { 1.0 / median } else { 1.0 })
}

/// Outcome of an SVC run.
#[derive(Debug, Clone, PartialEq)]
pub struct SvcResult {
    labels: Vec<usize>,
    num_clusters: usize,
    gamma: f64,
    radius2: f64,
    support_vectors: Vec<usize>,
}

impl SvcResult {
    /// Dense cluster label per input point.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of clusters found.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// The RBF width actually used.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Squared radius of the minimal enclosing sphere in feature space.
    pub fn radius_squared(&self) -> f64 {
        self.radius2
    }

    /// Indices of the support vectors (non-zero dual coefficients).
    pub fn support_vectors(&self) -> &[usize] {
        &self.support_vectors
    }
}

/// The classic labeling loop: for every pair of inside points in row
/// order whose components differ, sample the segment and join the two
/// components if every sample is inside. Production fits go through
/// [`Contour::connect`]; this reference implementation is the oracle the
/// labeling tests compare it against.
#[cfg(test)]
mod classic {
    use super::*;

    /// Joins the connected pairs with the classic loop.
    pub(super) fn connect(contour: &Contour<'_>, sets: &mut DisjointSets) {
        let points = contour.points;
        let r2 = |x: &[f64]| -> f64 {
            let mut k_sum = 0.0;
            for &i in contour.sv {
                let d2: f64 = x.iter().zip(&points[i]).map(|(a, b)| (a - b) * (a - b)).sum();
                k_sum += contour.beta[i] * (-contour.gamma * d2).exp();
            }
            1.0 - 2.0 * k_sum + contour.quad
        };
        let n = points.len();
        let samples = contour.samples;
        for i in 0..n {
            if !contour.inside[i] {
                continue;
            }
            for j in (i + 1)..n {
                if !contour.inside[j] {
                    continue;
                }
                if sets.find(i) == sets.find(j) {
                    continue;
                }
                let mut connected = true;
                for step in 1..samples {
                    let t = step as f64 / samples as f64;
                    let mid: Vec<f64> =
                        points[i].iter().zip(&points[j]).map(|(a, b)| a + t * (b - a)).collect();
                    if r2(&mid) > contour.bound {
                        connected = false;
                        break;
                    }
                }
                if connected {
                    sets.union(i, j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f64, f64)], per: usize) -> Vec<Vec<f64>> {
        let mut points = Vec::new();
        for &(cx, cy) in centers {
            for i in 0..per {
                let dx = (i % 4) as f64 * 0.08;
                let dy = (i / 4) as f64 * 0.08;
                points.push(vec![cx + dx, cy + dy]);
            }
        }
        points
    }

    #[test]
    fn separates_two_blobs() {
        let points = blobs(&[(0.0, 0.0), (6.0, 6.0)], 12);
        let result = Svc::new(SvcConfig::new().with_gamma(1.5)).fit(&points).unwrap();
        assert_eq!(result.num_clusters(), 2, "labels: {:?}", result.labels());
        // Within-blob labels agree.
        for w in result.labels()[..12].windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert_ne!(result.labels()[0], result.labels()[12]);
    }

    #[test]
    fn separates_three_blobs() {
        let points = blobs(&[(0.0, 0.0), (7.0, 0.0), (0.0, 7.0)], 10);
        let result = Svc::new(SvcConfig::new().with_gamma(1.5)).fit(&points).unwrap();
        assert_eq!(result.num_clusters(), 3);
    }

    #[test]
    fn tiny_gamma_merges_everything() {
        let points = blobs(&[(0.0, 0.0), (4.0, 4.0)], 8);
        let result = Svc::new(SvcConfig::new().with_gamma(1e-4)).fit(&points).unwrap();
        assert_eq!(result.num_clusters(), 1);
    }

    #[test]
    fn default_gamma_is_reasonable() {
        let points = blobs(&[(0.0, 0.0), (5.0, 5.0)], 10);
        let result = Svc::new(SvcConfig::new()).fit(&points).unwrap();
        assert!(result.gamma() > 0.0);
        assert!(result.num_clusters() >= 1);
    }

    #[test]
    fn labels_are_dense_and_cover_all_points() {
        let points = blobs(&[(0.0, 0.0), (8.0, 0.0)], 9);
        let result = Svc::new(SvcConfig::new().with_gamma(2.0)).fit(&points).unwrap();
        let max = *result.labels().iter().max().unwrap();
        assert_eq!(max + 1, result.num_clusters());
        assert_eq!(result.labels().len(), points.len());
    }

    #[test]
    fn deterministic_for_seed() {
        let points = blobs(&[(0.0, 0.0), (6.0, 6.0)], 10);
        let a = Svc::new(SvcConfig::new().with_seed(3)).fit(&points).unwrap();
        let b = Svc::new(SvcConfig::new().with_seed(3)).fit(&points).unwrap();
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(Svc::new(SvcConfig::new()).fit(&[]).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(Svc::new(SvcConfig::new()).fit(&ragged).is_err());
        let points = blobs(&[(0.0, 0.0)], 5);
        assert!(Svc::new(SvcConfig::new().with_gamma(-1.0)).fit(&points).is_err());
        assert!(Svc::new(SvcConfig::new().with_soft_margin(0.01)).fit(&points).is_err());
    }

    #[test]
    fn single_point_is_one_cluster() {
        let result = Svc::new(SvcConfig::new()).fit(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(result.num_clusters(), 1);
        assert_eq!(result.labels(), &[0]);
    }

    #[test]
    fn support_vectors_are_reported() {
        let points = blobs(&[(0.0, 0.0), (6.0, 6.0)], 10);
        let result = Svc::new(SvcConfig::new().with_gamma(1.0)).fit(&points).unwrap();
        assert!(!result.support_vectors().is_empty());
        assert!(result.radius_squared() >= 0.0);
    }

    /// Fits with the classic labeling loop, also returning how many points
    /// fell outside the contour (the ones the outlier step attaches).
    fn fit_classic(config: &SvcConfig, points: &[Vec<f64>]) -> (SvcResult, usize) {
        let mut outside = 0;
        let result = Svc::new(config.clone())
            .fit_with(points, |contour, sets, _| {
                outside = contour.inside.iter().filter(|&&inside| !inside).count();
                classic::connect(contour, sets);
            })
            .unwrap();
        (result, outside)
    }

    /// Asserts the production fit equals the classic oracle and returns
    /// the oracle's result and outside count.
    fn assert_matches_classic(config: &SvcConfig, points: &[Vec<f64>]) -> (SvcResult, usize) {
        let (classic, outside) = fit_classic(config, points);
        let result = Svc::new(config.clone()).fit(points).unwrap();
        assert_eq!(result, classic, "{config:?}");
        (classic, outside)
    }

    /// `per` points around each of `centers`, with seeded uniform noise
    /// of half-width `spread` in every dimension.
    fn noisy_blobs(centers: &[Vec<f64>], per: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points = Vec::new();
        for center in centers {
            for _ in 0..per {
                points.push(
                    center.iter().map(|c| c + spread * (2.0 * rng.random::<f64>() - 1.0)).collect(),
                );
            }
        }
        points
    }

    fn centers(k: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k).map(|_| (0..dim).map(|_| 4.0 * rng.random::<f64>()).collect()).collect()
    }

    #[test]
    fn labels_match_the_classic_loop_on_random_blobs() {
        let mut clusters = Vec::new();
        for (k, dim, per, seed) in [(2, 2, 20, 1), (3, 5, 15, 2), (4, 30, 12, 3), (5, 9, 9, 4)] {
            let points = noisy_blobs(&centers(k, dim, seed), per, 0.6, seed);
            let base = suggest_gamma(&points).unwrap();
            for factor in [1.0, 4.0, 32.0] {
                let config = SvcConfig::new().with_gamma(base * factor).with_seed(seed);
                clusters.push(assert_matches_classic(&config, &points).0.num_clusters());
            }
        }
        assert!(clusters.iter().any(|&c| c > 1), "no fit split the blobs: {clusters:?}");
    }

    #[test]
    fn labels_match_the_classic_loop_with_duplicate_points() {
        let mut points = noisy_blobs(&centers(3, 4, 9), 20, 0.4, 9);
        let copies: Vec<Vec<f64>> = points.iter().step_by(3).cloned().collect();
        points.extend(copies);
        points.push(points[0].clone());
        for gamma in [0.5, 4.0, 32.0] {
            assert_matches_classic(&SvcConfig::new().with_gamma(gamma), &points);
        }
    }

    #[test]
    fn labels_match_the_classic_loop_with_bounded_support_vectors() {
        // C < 1 lets outliers sit outside the sphere; they are attached
        // to their nearest inside point after the segment tests.
        let mut points = noisy_blobs(&centers(3, 6, 5), 25, 0.5, 5);
        points.push(vec![12.0; 6]);
        points.push(vec![-8.0; 6]);
        let mut outside = 0;
        for c in [0.05, 0.2, 0.5] {
            for gamma in [0.3, 1.0, 8.0] {
                let config = SvcConfig::new().with_gamma(gamma).with_soft_margin(c);
                outside += assert_matches_classic(&config, &points).1;
            }
        }
        assert!(outside > 0, "no fit had a point outside the contour");
    }

    #[test]
    fn labels_match_the_classic_loop_across_the_gamma_sweep() {
        let points = noisy_blobs(&centers(3, 12, 21), 20, 0.8, 21);
        let base = suggest_gamma(&points).unwrap();
        for factor in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            assert_matches_classic(&SvcConfig::new().with_gamma(base * factor), &points);
        }
    }

    /// The benchmark's shape: 433 failure records × 30 features, every
    /// sweep factor. Too slow for a debug build; CI runs it in release.
    #[test]
    #[ignore]
    fn labels_match_the_classic_loop_at_bench_shape() {
        let mut points = noisy_blobs(&centers(3, 30, 433), 144, 0.9, 433);
        points.push(vec![2.0; 30]);
        assert_eq!(points.len(), 433);
        let base = suggest_gamma(&points).unwrap();
        for factor in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            assert_matches_classic(&SvcConfig::new().with_gamma(base * factor), &points);
        }
    }

    #[test]
    fn rejects_a_nan_soft_margin() {
        let points = blobs(&[(0.0, 0.0)], 5);
        let err = Svc::new(SvcConfig::new().with_soft_margin(f64::NAN)).fit(&points).unwrap_err();
        assert!(matches!(err, StatsError::InvalidParameter(_)), "{err:?}");
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut points = blobs(&[(0.0, 0.0)], 5);
            points[2][1] = bad;
            for config in [SvcConfig::new(), SvcConfig::new().with_gamma(1.0)] {
                let err = Svc::new(config).fit(&points).unwrap_err();
                assert!(matches!(err, StatsError::InvalidParameter(_)), "{bad}: {err:?}");
            }
            let err = suggest_gamma(&points).unwrap_err();
            assert!(matches!(err, StatsError::InvalidParameter(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn rejects_an_infinite_gamma() {
        let points = blobs(&[(0.0, 0.0)], 5);
        for gamma in [f64::INFINITY, f64::NAN] {
            let err = Svc::new(SvcConfig::new().with_gamma(gamma)).fit(&points).unwrap_err();
            assert!(matches!(err, StatsError::InvalidParameter(_)), "{gamma}: {err:?}");
        }
    }
}
