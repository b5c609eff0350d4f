//! SOM construction and training.
//!
//! The online trainer follows the paper's pseudo-code (Section III-A):
//!
//! ```text
//! Initialize: assign a random initial value to each unit's weight vector
//! Repeat:
//!     Randomly select a characteristic vector
//!     Get the best matching unit
//!     Adjust the weight of itself and its neighbors
//! Continue until converge
//! ```
//!
//! with the update rule `w_i(n+1) = w_i(n) + h_ci(n)[x(n) - w_i(n)]` and the
//! Gaussian neighborhood `h_ci(n) = α(n)·exp(-||r_c - r_i||²/2σ²(n))`.
//! The paper also notes weights are "usually determined by sampling a
//! subspace generated by the two major principal components" —
//! [`Initializer::PcaPlane`].

use std::time::Instant;

use hiermeans_linalg::distance::Metric;
use hiermeans_linalg::kernels;
use hiermeans_linalg::parallel::{self, Chunking};
use hiermeans_linalg::pca::Pca;
use hiermeans_linalg::rows::RowSource;
use hiermeans_linalg::{stats, Matrix};
use hiermeans_obs::{
    convergence, stages, Collector, Counter, CounterBuf, EpochRecord, HistogramId, LaneBuf,
    LaneClock,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::grid::{Grid, GridTopology};
use crate::kernel::NeighborhoodKernel;
use crate::quality::BmuTable;
use crate::schedule::DecaySchedule;
use crate::warm::{WarmBounds, WarmRow, WarmStart, WarmState};
use crate::SomError;

/// Chunking for the BMU search: one row's search is cheap, so chunks of 64
/// amortize dispatch overhead, and suites under 256 rows stay serial (the
/// threshold the old hand-rolled thread pool used).
const BMU_CHUNKING: Chunking = Chunking::new(64, 256);

/// Chunking for the batch epoch: each 64-row chunk gets its BMU search and
/// a `(numerator, denominator)` partial, folded in ascending chunk order;
/// inputs under 256 rows stay on the calling thread.
const BATCH_CHUNKING: Chunking = Chunking::new(64, 256);

/// Unit-count ceiling for the per-epoch neighborhood-kernel table
/// (`units²` values, at most 8 MiB of `f64`s). Larger maps — and maps with
/// fewer samples than units, where the table would cost more kernel
/// evaluations than it saves — evaluate the kernel per `(sample, unit)`
/// pair as before. The table is a pure caching layer (same inputs, same
/// [`NeighborhoodKernel::value`] call), so the produced bits are identical
/// either way.
const KERNEL_TABLE_MAX_UNITS: usize = 1024;

/// Rows per strip of the batch trainer, which reads resident and streamed
/// input alike through [`RowSource`]. A multiple of the batch chunk size,
/// so every strip's chunks land on one global 64-row grid and the partials
/// fold in the same order however the rows are split into strips.
const STREAM_STRIP_ROWS: usize = 4096;
const _: () = assert!(STREAM_STRIP_ROWS.is_multiple_of(BATCH_CHUNKING.chunk_size));

/// How unit weight vectors are initialized before training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Initializer {
    /// Each weight component sampled uniformly within the column's data range.
    Random,
    /// Units arranged on the plane spanned by the two major principal
    /// components of the data (the paper's recommended initialization).
    /// Falls back to [`Initializer::Random`] when PCA is not applicable
    /// (fewer than 3 observations or a single column).
    PcaPlane,
}

/// Whether to use the paper's sequential (online) algorithm or batch updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TrainingMode {
    /// One random sample per step; the paper's competitive-learning loop.
    Online,
    /// Per-epoch kernel-weighted recomputation of every unit from all
    /// samples; deterministic given the initialization. Rows are read in
    /// strips, and each strip's BMU search and accumulation run on every
    /// worker with bitwise-identical results for any worker count.
    Batch,
}

/// Configures and trains a [`Som`].
///
/// # Example
///
/// ```
/// use hiermeans_linalg::Matrix;
/// use hiermeans_som::{SomBuilder, GridTopology, NeighborhoodKernel};
///
/// # fn main() -> Result<(), hiermeans_som::SomError> {
/// let data = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.1], vec![1.0, 1.0], vec![0.9, 1.1],
/// ])?;
/// let som = SomBuilder::new(3, 3)
///     .topology(GridTopology::Rectangular)
///     .kernel(NeighborhoodKernel::Gaussian)
///     .epochs(30)
///     .seed(42)
///     .train(&data)?;
/// assert_eq!(som.dim(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SomBuilder {
    width: usize,
    height: usize,
    topology: GridTopology,
    kernel: NeighborhoodKernel,
    alpha: DecaySchedule,
    sigma: Option<DecaySchedule>,
    epochs: usize,
    seed: u64,
    initializer: Initializer,
    mode: TrainingMode,
    metric: Metric,
    #[serde(default)]
    warm_start: WarmStart,
}

/// The heuristic map size for `n` input rows: about `5·√n` units arranged
/// on a square lattice, never smaller than `2 × 2`.
///
/// This is the widely used sizing rule from the SOM Toolbox (Vesanto et
/// al.): enough units that distinct workload behaviors claim distinct map
/// regions, few enough that each unit still averages several hits. The
/// returned `(width, height)` are equal — a square map keeps both σ-decay
/// axes symmetric.
pub fn heuristic_map_size(n: usize) -> (usize, usize) {
    let units = (5.0 * (n as f64).sqrt()).round();
    let side = (units.sqrt().round() as usize).max(2);
    (side, side)
}

impl SomBuilder {
    /// Starts a builder for a `width x height` map with the paper's defaults:
    /// rectangular grid, Gaussian kernel, linear α from 0.5 to 0.01, σ from
    /// half the map diameter to 0.5, 100 epochs, online training, PCA-plane
    /// initialization, Euclidean BMU metric.
    pub fn new(width: usize, height: usize) -> Self {
        SomBuilder {
            width,
            height,
            topology: GridTopology::Rectangular,
            kernel: NeighborhoodKernel::Gaussian,
            alpha: DecaySchedule::Linear {
                start: 0.5,
                end: 0.01,
            },
            sigma: None,
            epochs: 100,
            seed: 0xB0A7_5EED,
            initializer: Initializer::PcaPlane,
            mode: TrainingMode::Online,
            metric: Metric::Euclidean,
            warm_start: WarmStart::Enabled,
        }
    }

    /// Starts a builder whose grid is sized for `n` input rows by the
    /// standard SOM heuristic (Vesanto et al.): about `5·√n` units on a
    /// near-square lattice, clamped to at least `2 × 2`.
    ///
    /// The paper's studies fix a small map for their 13-program suites; this
    /// constructor is the scaling rule for corpora where a fixed map would
    /// under-resolve the input space. See [`heuristic_map_size`] for the
    /// exact rule.
    pub fn heuristic_grid(n: usize) -> Self {
        let (width, height) = heuristic_map_size(n);
        SomBuilder::new(width, height)
    }

    /// Sets the lattice topology.
    pub fn topology(mut self, topology: GridTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the neighborhood kernel.
    pub fn kernel(mut self, kernel: NeighborhoodKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the learning-rate schedule α(n).
    pub fn alpha(mut self, alpha: DecaySchedule) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the neighborhood-radius schedule σ(n). Defaults to a linear decay
    /// from half the map diameter to 0.5.
    pub fn sigma(mut self, sigma: DecaySchedule) -> Self {
        self.sigma = Some(sigma);
        self
    }

    /// Sets the number of passes over the data.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the RNG seed; training is fully deterministic given the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the weight initializer.
    pub fn initializer(mut self, initializer: Initializer) -> Self {
        self.initializer = initializer;
        self
    }

    /// Sets online vs batch training.
    pub fn mode(mut self, mode: TrainingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the BMU distance metric. A (squared) Euclidean metric runs the
    /// norm-trick BMU search, whose winners are re-ranked with the exact
    /// scalar metric, so the trained map is bitwise identical to a plain
    /// scalar scan; every other metric runs that scalar scan directly.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Enables or disables epoch-warm BMU reuse for batch training
    /// (defaults to [`WarmStart::Enabled`]).
    ///
    /// The trained map is **bitwise identical** either way: a cached BMU is
    /// reused only when the triangle-inequality drift bound proves the
    /// exact search would return it, and every other row rescans exactly
    /// (see [`crate::warm`] for the bound argument). Online training always
    /// searches exactly, so the knob is a no-op there; the knob exists for
    /// benchmarking the warm path against the cold one and because
    /// disabling it drops the cache's `O(n)` bookkeeping in the streaming
    /// trainer's memory-ceiling mode.
    pub fn warm_start(mut self, warm_start: WarmStart) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Trains a map on `data` (rows are characteristic vectors).
    ///
    /// # Errors
    ///
    /// * [`SomError::InvalidConfig`] for a zero-sized grid or zero epochs.
    /// * [`SomError::EmptyData`] for empty data.
    /// * [`SomError::Linalg`] if `data` contains non-finite values.
    pub fn train(&self, data: &Matrix) -> Result<Som, SomError> {
        self.train_traced(data, &Collector::disabled())
    }

    /// Trains a map while reporting telemetry into `collector`: a
    /// `som.train` span with per-epoch durations, hot-path counters (BMU
    /// searches, distance and kernel evaluations), per-epoch
    /// quantization/topographic error and neighborhood σ (sampled at the
    /// collector's [`hiermeans_obs::ObsConfig::epoch_quality_stride`]), and
    /// a [`hiermeans_obs::ConvergenceVerdict`] over the recorded QE curve.
    ///
    /// The trained map is bitwise identical to [`SomBuilder::train`]'s —
    /// telemetry only observes, never steers.
    ///
    /// # Errors
    ///
    /// Same as [`SomBuilder::train`].
    pub fn train_traced(&self, data: &Matrix, collector: &Collector) -> Result<Som, SomError> {
        Ok(self.train_impl(data, None, collector)?.0)
    }

    /// Trains a map while recording the quantization error after every
    /// epoch, for convergence inspection ("Continue until converge").
    ///
    /// # Errors
    ///
    /// Same as [`SomBuilder::train`].
    ///
    /// # Example
    ///
    /// ```
    /// use hiermeans_linalg::Matrix;
    /// use hiermeans_som::SomBuilder;
    ///
    /// # fn main() -> Result<(), hiermeans_som::SomError> {
    /// let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0]])?;
    /// let (_som, history) = SomBuilder::new(4, 4).seed(1).epochs(30)
    ///     .train_with_history(&data)?;
    /// assert_eq!(history.len(), 30);
    /// assert!(history.last().unwrap() <= history.first().unwrap());
    /// # Ok(())
    /// # }
    /// ```
    pub fn train_with_history(&self, data: &Matrix) -> Result<(Som, Vec<f64>), SomError> {
        let mut history = Vec::with_capacity(self.epochs);
        let (som, recorded) = self.train_impl(data, Some(&mut history), &Collector::disabled())?;
        debug_assert!(recorded);
        Ok((som, history))
    }

    /// Checks what both entry points share: a non-empty grid, a positive
    /// epoch count and valid schedules.
    fn validate_config(&self) -> Result<(), SomError> {
        if self.width == 0 || self.height == 0 {
            return Err(SomError::InvalidConfig {
                name: "grid",
                reason: "width and height must be positive",
            });
        }
        if self.epochs == 0 {
            return Err(SomError::InvalidConfig {
                name: "epochs",
                reason: "must be positive",
            });
        }
        self.alpha.validate().map_err(|source| SomError::Schedule {
            name: "alpha",
            source,
        })?;
        if let Some(sigma) = self.sigma {
            sigma.validate().map_err(|source| SomError::Schedule {
                name: "sigma",
                source,
            })?;
        }
        Ok(())
    }

    /// The σ schedule: the configured one, or half the map diameter down
    /// to 0.5.
    fn sigma_schedule(&self, grid: &Grid) -> DecaySchedule {
        self.sigma.unwrap_or(DecaySchedule::Linear {
            start: grid.diameter() / 2.0,
            end: 0.5,
        })
    }

    fn train_impl(
        &self,
        data: &Matrix,
        mut history: Option<&mut Vec<f64>>,
        collector: &Collector,
    ) -> Result<(Som, bool), SomError> {
        self.validate_config()?;
        if data.is_empty() {
            return Err(SomError::EmptyData);
        }
        // Stage-boundary guard: reject non-finite cells with their exact
        // coordinates (zero-variance or duplicated rows are fine for a SOM
        // and stay advisory).
        let report = hiermeans_linalg::validate::validate(data);
        if report.has_fatal() {
            return Err(SomError::InvalidData { report });
        }

        let span = collector.span(stages::SOM_TRAIN);
        let grid = Grid::new(self.width, self.height, self.topology);
        let sigma = self.sigma_schedule(&grid);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let weights = {
            let _init = collector.span(stages::SOM_INIT);
            self.initialize(&grid, data, &mut rng)?
        };
        let mut som = Som {
            grid,
            weights,
            metric: self.metric,
        };
        let mut telemetry = Telemetry::new(collector, self.epochs);
        match self.mode {
            TrainingMode::Online => som.train_online(
                data,
                self,
                sigma,
                &mut rng,
                history.as_deref_mut(),
                &mut telemetry,
            )?,
            TrainingMode::Batch => som.train_batch(
                &mut &*data,
                self,
                sigma,
                history.as_deref_mut(),
                &mut telemetry,
            )?,
        }
        telemetry.finish();
        drop(span);
        Ok((som, history.is_some()))
    }

    fn initialize(&self, grid: &Grid, data: &Matrix, rng: &mut StdRng) -> Result<Matrix, SomError> {
        if self.initializer == Initializer::PcaPlane {
            if let Some(w) = pca_plane_init(grid, data) {
                return Ok(w);
            }
        }
        random_init(grid, data, rng)
    }

    /// Trains a map on rows streamed from `source` without ever holding the
    /// full `n × dim` matrix resident: every pass (range scan for
    /// initialization, per-epoch BMU search + accumulation, sampled quality
    /// telemetry) consumes fixed-size strips through one reusable buffer,
    /// so training memory is bounded by the map size, the strip and the
    /// per-worker scratch (one search buffer and one `units × dim` partial
    /// per worker) — not by `n`.
    ///
    /// Batch training has one implementation: [`SomBuilder::train`] runs
    /// the same strip-wise trainer over its resident matrix. Each strip's
    /// BMU search and accumulation run on every worker, and the per-chunk
    /// partials fold in ascending chunk order, so the result does not
    /// depend on the worker count. Restrictions relative to
    /// [`SomBuilder::train`]:
    ///
    /// * Batch mode only ([`TrainingMode::Online`] samples rows at random,
    ///   which a sequential source cannot serve).
    /// * [`Initializer::PcaPlane`] falls back to [`Initializer::Random`]
    ///   (PCA needs the resident matrix). With [`Initializer::Random`] the
    ///   result is **bitwise identical** to the resident trainer's on the
    ///   same rows.
    /// * Epoch-warm BMU reuse works and is on by default, but its cache is
    ///   `O(n)`; pass [`WarmStart::Disabled`] for a strictly `n`-free
    ///   memory ceiling.
    ///
    /// # Errors
    ///
    /// Same as [`SomBuilder::train`], plus [`SomError::RowSource`] when the
    /// backend fails and [`SomError::InvalidConfig`] for non-batch mode or
    /// non-finite streamed values.
    pub fn train_stream(&self, source: &mut dyn RowSource) -> Result<Som, SomError> {
        self.train_stream_impl(source, &Collector::disabled())
    }

    /// [`SomBuilder::train_stream`] with telemetry reported into
    /// `collector`, mirroring [`SomBuilder::train_traced`]: per-epoch
    /// durations and counters, sampled QE/TE records (computed by one extra
    /// streamed pass per sampled epoch), and a convergence verdict.
    ///
    /// # Errors
    ///
    /// Same as [`SomBuilder::train_stream`].
    pub fn train_stream_traced(
        &self,
        source: &mut dyn RowSource,
        collector: &Collector,
    ) -> Result<Som, SomError> {
        self.train_stream_impl(source, collector)
    }

    fn train_stream_impl(
        &self,
        source: &mut dyn RowSource,
        collector: &Collector,
    ) -> Result<Som, SomError> {
        self.validate_config()?;
        if self.mode != TrainingMode::Batch {
            return Err(SomError::InvalidConfig {
                name: "mode",
                reason: "streaming training requires TrainingMode::Batch",
            });
        }
        let n = source.nrows();
        let dim = source.ncols();
        if n == 0 || dim == 0 {
            return Err(SomError::EmptyData);
        }
        let span = collector.span(stages::SOM_TRAIN);
        let grid = Grid::new(self.width, self.height, self.topology);
        let sigma = self.sigma_schedule(&grid);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut strip = vec![0.0f64; STREAM_STRIP_ROWS.min(n) * dim];
        // Pass 0: per-column ranges for the random initializer, folded in
        // row order exactly like `stats::min_max` over a resident column,
        // plus the non-finite guard the resident path gets from
        // stage-boundary validation.
        let weights = {
            let _init = collector.span(stages::SOM_INIT);
            let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); dim];
            let mut start = 0;
            while start < n {
                let count = (n - start).min(STREAM_STRIP_ROWS);
                source.load_rows(start, count, &mut strip[..count * dim])?;
                for (i, &v) in strip[..count * dim].iter().enumerate() {
                    if !v.is_finite() {
                        return Err(SomError::InvalidConfig {
                            name: "stream",
                            reason: "streamed rows contain non-finite values",
                        });
                    }
                    let (lo, hi) = &mut ranges[i % dim];
                    *lo = lo.min(v);
                    *hi = hi.max(v);
                }
                start += count;
            }
            random_init_from_ranges(&grid, &ranges, &mut rng)
        };
        let mut som = Som {
            grid,
            weights,
            metric: self.metric,
        };
        // The range pass's strip is freed before the trainer allocates its
        // own, so the two never sit on the heap together.
        drop(strip);
        let mut telemetry = Telemetry::new(collector, self.epochs);
        som.train_batch(source, self, sigma, None, &mut telemetry)?;
        telemetry.finish();
        drop(span);
        Ok(som)
    }
}

/// Per-run training telemetry shared by both training modes: flushes the
/// hot-loop counter buffer once per epoch, records epoch durations, samples
/// map quality at the collector's stride through the shared BMU cache, and
/// assesses convergence over the recorded QE curve when training ends.
struct Telemetry<'a> {
    collector: &'a Collector,
    enabled: bool,
    stride: usize,
    epochs: usize,
    records: Vec<EpochRecord>,
}

impl<'a> Telemetry<'a> {
    fn new(collector: &'a Collector, epochs: usize) -> Self {
        Telemetry {
            collector,
            enabled: collector.is_enabled(),
            stride: collector.epoch_quality_stride(),
            epochs,
            records: Vec::new(),
        }
    }

    /// Starts an epoch clock (no clock read when disabled).
    fn epoch_start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Whether `epoch` gets a quality record: telemetry is on and the epoch
    /// falls on the sampling stride (or is the last one).
    fn wants_record(&self, epoch: usize) -> bool {
        self.enabled
            && self.stride > 0
            && (epoch % self.stride == self.stride - 1 || epoch + 1 == self.epochs)
    }

    /// Closes one epoch: stamps its duration, counts the epoch, stores the
    /// sampled quality record (computed by the trainer's own best-two pass)
    /// if any, and flushes the per-epoch counter buffer.
    fn epoch_end(
        &mut self,
        epoch: usize,
        started: Option<Instant>,
        buf: &mut CounterBuf,
        record: Option<EpochRecord>,
        warm_hit_rate: Option<f64>,
    ) {
        if !self.enabled {
            return;
        }
        if let Some(t) = started {
            let duration_us = t.elapsed().as_micros() as f64;
            self.collector
                .record(HistogramId::EpochDurationMicros, duration_us);
            // Live progress beat: quality only on sampled epochs, the warm
            // hit rate every epoch. A no-op without an attached live plane,
            // and never a write into the recorded trace.
            self.collector.live_epoch(
                epoch,
                self.epochs,
                record.as_ref().map(|r| r.quantization_error),
                warm_hit_rate,
                duration_us as u64,
            );
        }
        buf.add(Counter::SomEpochs, 1);
        if let Some(record) = record {
            self.records.push(record);
            self.collector.record_epoch(record);
        }
        self.collector.flush(buf);
        *buf = CounterBuf::new();
    }

    /// Publishes one strip progress beat to an attached live plane (no-op
    /// without one, like every live hook). An epoch that fits in one strip
    /// has no progress inside it to report, so it publishes none.
    fn strip(&self, epoch: usize, strip: usize, total_strips: usize) {
        if self.enabled && total_strips > 1 {
            self.collector.live_strip(epoch, strip, total_strips);
        }
    }

    /// Stores the convergence verdict over the sampled QE curve.
    fn finish(&mut self) {
        if self.enabled && !self.records.is_empty() {
            self.collector
                .set_verdict(convergence::assess(&self.records));
        }
    }
}

fn random_init(grid: &Grid, data: &Matrix, rng: &mut StdRng) -> Result<Matrix, SomError> {
    let dim = data.ncols();
    let ranges: Vec<(f64, f64)> = (0..dim)
        .map(|c| stats::min_max(&data.col(c)))
        .collect::<Result<_, _>>()?;
    Ok(random_init_from_ranges(grid, &ranges, rng))
}

/// The range-driven half of [`random_init`], shared with the streaming
/// trainer (which folds the per-column ranges from strips instead of
/// resident columns): given identical ranges and RNG state, the produced
/// weights are identical.
fn random_init_from_ranges(grid: &Grid, ranges: &[(f64, f64)], rng: &mut StdRng) -> Matrix {
    let dim = ranges.len();
    let mut w = Matrix::zeros(grid.len(), dim);
    for u in 0..grid.len() {
        for c in 0..dim {
            let (lo, hi) = ranges[c];
            w[(u, c)] = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        }
    }
    w
}

fn pca_plane_init(grid: &Grid, data: &Matrix) -> Option<Matrix> {
    if data.nrows() < 3 || data.ncols() < 2 {
        return None;
    }
    let pca = Pca::fit(data, 2).ok()?;
    let dim = data.ncols();
    let means = pca.means().to_vec();
    let sd0 = pca.explained_variance()[0].sqrt();
    let sd1 = pca
        .explained_variance()
        .get(1)
        .copied()
        .unwrap_or(0.0)
        .sqrt();
    let mut w = Matrix::zeros(grid.len(), dim);
    for u in 0..grid.len() {
        let (col, row) = grid.coords(u);
        let tx = if grid.width() > 1 {
            col as f64 / (grid.width() - 1) as f64 * 2.0 - 1.0
        } else {
            0.0
        };
        let ty = if grid.height() > 1 {
            row as f64 / (grid.height() - 1) as f64 * 2.0 - 1.0
        } else {
            0.0
        };
        for c in 0..dim {
            w[(u, c)] = means[c]
                + tx * sd0 * pca.components()[(0, c)]
                + ty * sd1 * pca.components()[(1, c)];
        }
    }
    Some(w)
}

/// The best and second-best matching units for a sample, each paired with
/// its distance to the sample.
pub(crate) type BestTwo = ((usize, f64), (usize, f64));

/// Reusable buffers for one blocked BMU search: precomputed unit norms, the
/// per-query trick distances, and the refinement candidate list. Allocated
/// once (capacities never grow past the unit count), then reused for every
/// query, so steady-state searches do not touch the heap.
struct SearchScratch {
    unit_norms: Vec<f64>,
    trick: Vec<f64>,
    candidates: Vec<usize>,
}

impl SearchScratch {
    fn with_norms(unit_norms: Vec<f64>) -> Self {
        let units = unit_norms.len();
        SearchScratch {
            unit_norms,
            trick: vec![0.0; units],
            candidates: Vec::with_capacity(units),
        }
    }
}

/// A codebook prepared for batched norm-trick searches: the transposed
/// weights (whose column-major layout the trick-distance kernel streams)
/// and the per-unit squared norms.
///
/// The batch trainer builds one before the epoch loop and refreshes it in
/// place after each weight update, so the transpose and norms are computed
/// once per *epoch* and shared by every worker's BMU search, the epoch-warm
/// fallback, and the sampled quality pass.
struct PreparedCodebook {
    wt: Matrix,
    unit_norms: Vec<f64>,
}

impl PreparedCodebook {
    fn new(som: &Som) -> Self {
        let mut prep = PreparedCodebook {
            wt: Matrix::zeros(som.weights.ncols(), som.weights.nrows()),
            unit_norms: vec![0.0; som.weights.nrows()],
        };
        prep.refresh(som);
        prep
    }

    /// Rebuilds the transpose and norms in place from the map's current
    /// weights (no allocation).
    fn refresh(&mut self, som: &Som) {
        som.weights.transpose_into(&mut self.wt);
        kernels::row_sq_norms_into(&som.weights, &mut self.unit_norms);
    }
}

/// One batch worker's scratch, allocated once per run: its BMU search
/// buffers, the chunk in flight's BMUs (or, in a quality pass, best
/// distances), and that chunk's accumulator partial. A worker holds one
/// chunk at a time and folds it before claiming the next, so batch memory
/// grows with the worker count, not with `n`.
struct BatchWorker {
    /// Lane index (0 is the calling thread).
    id: usize,
    search: Option<SearchScratch>,
    bmus: Vec<usize>,
    dists: Vec<f64>,
    /// Rows in the chunk in flight.
    rows: usize,
    part_numer: Matrix,
    part_denom: Vec<f64>,
    warm_hits: u64,
    rescans: u64,
    topographic_errors: usize,
    /// Lane stamps of the chunk in flight: search start, accumulation
    /// start, accumulation end.
    stamps: [u64; 3],
}

impl BatchWorker {
    fn new(id: usize, units: usize, dim: usize, prep: Option<&PreparedCodebook>) -> Self {
        let chunk = BATCH_CHUNKING.chunk_size;
        BatchWorker {
            id,
            search: prep.map(|p| SearchScratch::with_norms(p.unit_norms.clone())),
            bmus: vec![0; chunk],
            dists: vec![0.0; chunk],
            rows: 0,
            part_numer: Matrix::zeros(units, dim),
            part_denom: vec![0.0; units],
            warm_hits: 0,
            rescans: 0,
            topographic_errors: 0,
            stamps: [0; 3],
        }
    }

    /// Searches the BMUs of one chunk's rows `xs` — through the warm cache
    /// when the chunk comes with its rows' slots — and accumulates the
    /// chunk into this worker's partial, stamping both phases for the lanes.
    fn train_chunk(
        &mut self,
        som: &Som,
        xs: &[f64],
        mut warm: Option<(&mut [WarmRow], WarmBounds)>,
        prep: Option<&PreparedCodebook>,
        ctx: &EpochKernel<'_>,
        clock: Option<LaneClock>,
    ) -> Result<(), SomError> {
        let now = || clock.map_or(0, |c| c.now_us());
        self.stamps[0] = now();
        for (i, x) in xs.chunks_exact(som.dim()).enumerate() {
            self.bmus[i] = match warm.as_mut() {
                Some((slots, bounds)) => match bounds.try_hit(&slots[i]) {
                    Some(bmu) => {
                        self.warm_hits += 1;
                        bmu
                    }
                    None => {
                        self.rescans += 1;
                        let exact = som.exact_best_two(x, prep, self.search.as_mut())?;
                        bounds.refresh(&mut slots[i], exact);
                        exact.0 .0
                    }
                },
                None => som.exact_best_two(x, prep, self.search.as_mut())?.0 .0,
            };
        }
        self.stamps[1] = now();
        self.part_numer.fill(0.0);
        self.part_denom.fill(0.0);
        for (x, &bmu) in xs.chunks_exact(som.dim()).zip(&self.bmus) {
            accumulate_sample(x, bmu, ctx, &mut self.part_numer, &mut self.part_denom);
        }
        self.stamps[2] = now();
        Ok(())
    }

    /// One exact best-two search per row of `xs`, keeping each best
    /// distance for the ordered quantization-error sum and counting the
    /// rows whose best two units are not lattice neighbors.
    fn quality_chunk(
        &mut self,
        som: &Som,
        xs: &[f64],
        prep: Option<&PreparedCodebook>,
    ) -> Result<(), SomError> {
        self.rows = 0;
        for x in xs.chunks_exact(som.dim()) {
            let ((best, d), (second, _)) = som.exact_best_two(x, prep, self.search.as_mut())?;
            self.dists[self.rows] = d;
            self.rows += 1;
            if som.grid.len() >= 2 && !som.grid.are_neighbors(best, second) {
                self.topographic_errors += 1;
            }
        }
        Ok(())
    }
}

/// A trained self-organizing map.
///
/// Obtain one from [`SomBuilder::train`]. Rows of the weight matrix are unit
/// weight vectors, indexed by [`Grid`] unit index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Som {
    grid: Grid,
    weights: Matrix,
    metric: Metric,
}

impl Som {
    /// The unit lattice.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The unit weight matrix (`units x dim`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Dimensionality of the input space the map was trained on.
    pub fn dim(&self) -> usize {
        self.weights.ncols()
    }

    /// The BMU distance metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The best matching unit for `x`: the unit whose weight vector minimizes
    /// the distance to `x` (ties broken by lowest unit index).
    ///
    /// # Errors
    ///
    /// Returns [`SomError::DimensionMismatch`] if `x.len() != dim()`.
    pub fn bmu(&self, x: &[f64]) -> Result<usize, SomError> {
        Ok(self.best_two_with_distance(x)?.0 .0)
    }

    /// The best and second-best matching units for `x`, used by the
    /// topographic-error metric.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::DimensionMismatch`] if `x.len() != dim()`, and
    /// [`SomError::InvalidConfig`] if the map has a single unit.
    pub fn bmu2(&self, x: &[f64]) -> Result<(usize, usize), SomError> {
        if self.grid.len() < 2 {
            return Err(SomError::InvalidConfig {
                name: "grid",
                reason: "second-best unit requires at least two units",
            });
        }
        let (best, second) = self.best_two_with_distance(x)?;
        Ok((best.0, second.0))
    }

    /// One codebook scan yielding the best and second-best units *with*
    /// their distances — the primitive behind [`Som::bmu`], [`Som::bmu2`],
    /// and the shared [`crate::quality::BmuTable`] cache (which is what
    /// keeps per-epoch quality telemetry at one search pass, not two).
    pub(crate) fn best_two_with_distance(&self, x: &[f64]) -> Result<BestTwo, SomError> {
        if x.len() != self.dim() {
            return Err(SomError::DimensionMismatch {
                expected: self.dim(),
                actual: x.len(),
            });
        }
        self.scalar_best_two(x)
    }

    /// The reference scalar best-two scan over every unit in ascending
    /// index order. The blocked search must reproduce this result exactly.
    fn scalar_best_two(&self, x: &[f64]) -> Result<BestTwo, SomError> {
        kernels::refine_best_two(x, &self.weights, 0..self.grid.len(), |a, b| {
            self.metric.distance(a, b)
        })
        .map_err(SomError::Linalg)
    }

    /// Whether the blocked norm-trick search applies: it covers the
    /// (squared) Euclidean metrics and needs a second unit for the
    /// candidate threshold.
    fn blocked_applicable(&self) -> bool {
        matches!(self.metric, Metric::Euclidean | Metric::SquaredEuclidean) && self.grid.len() >= 2
    }

    /// Blocked best-two search: norm-trick squared distances prune the
    /// codebook down to the candidates whose exact distance could still win,
    /// then the scalar metric re-ranks those candidates in ascending unit
    /// order.
    ///
    /// The candidate band is wide enough to cover both the trick's and the
    /// scalar formula's rounding (including square-root ties under
    /// [`Metric::Euclidean`]), so the result — unit indices *and* distance
    /// bits — equals [`Som::scalar_best_two`]'s on every input the band
    /// arithmetic is finite for; non-finite thresholds fall back to the full
    /// scalar scan.
    fn blocked_best_two(
        &self,
        x: &[f64],
        scratch: &mut SearchScratch,
    ) -> Result<BestTwo, SomError> {
        let xn = kernels::sq_norm_fast(x);
        kernels::sq_dists_into(
            x,
            xn,
            &self.weights,
            &scratch.unit_norms,
            &mut scratch.trick,
        );
        self.refine_from_trick(x, xn, scratch)
    }

    /// Blocked best-two search against a *transposed* codebook (`dim x
    /// units`): the trick distances come from
    /// [`kernels::trick_dists_wt_into`], whose column-major streaming sweeps
    /// are substantially faster for batched queries, and whose rounding
    /// error sits inside the same [`kernels::candidate_band`] — so the
    /// shared candidate pruning and scalar refinement behave exactly as in
    /// [`Som::blocked_best_two`] and the result still matches
    /// [`Som::scalar_best_two`] exactly.
    fn blocked_best_two_wt(
        &self,
        x: &[f64],
        wt: &Matrix,
        scratch: &mut SearchScratch,
    ) -> Result<BestTwo, SomError> {
        let xn = kernels::sq_norm_fast(x);
        kernels::trick_dists_wt_into(x, xn, wt, &scratch.unit_norms, &mut scratch.trick);
        self.refine_from_trick(x, xn, scratch)
    }

    /// The pruning tail shared by both blocked searches — and the single
    /// exact-search entry point the epoch-warm fallback funnels through:
    /// best-two scan over the trick distances already in `scratch.trick`,
    /// conservative candidate collection inside the error band, and exact
    /// scalar refinement (with the full scalar scan as the fallback when
    /// the band arithmetic is not finite).
    ///
    /// Unit-test builds check every result against
    /// [`Som::scalar_best_two`] on the current weights, so each training
    /// step's search — including the online loop's incrementally maintained
    /// unit norms — is held to the scalar oracle.
    fn refine_from_trick(
        &self,
        x: &[f64],
        xn: f64,
        scratch: &mut SearchScratch,
    ) -> Result<BestTwo, SomError> {
        let dim = self.dim();
        // Two smallest trick values; t2's unit norm anchors the threshold.
        let (mut t1, mut t2) = (f64::INFINITY, f64::INFINITY);
        let (mut u1, mut u2) = (0usize, 0usize);
        for (u, &t) in scratch.trick.iter().enumerate() {
            if t < t1 {
                t2 = t1;
                u2 = u1;
                t1 = t;
                u1 = u;
            } else if t < t2 {
                t2 = t;
                u2 = u;
            }
        }
        let base = t2 + kernels::candidate_band(dim, xn, scratch.unit_norms[u2]);
        if !base.is_finite() {
            return self.scalar_best_two(x);
        }
        scratch.candidates.clear();
        for (u, &t) in scratch.trick.iter().enumerate() {
            if t <= base + kernels::candidate_band(dim, xn, scratch.unit_norms[u]) {
                scratch.candidates.push(u);
            }
        }
        let hit = kernels::refine_best_two(
            x,
            &self.weights,
            scratch.candidates.iter().copied(),
            |a, b| self.metric.distance(a, b),
        )
        .map_err(SomError::Linalg)?;
        #[cfg(test)]
        tests::assert_matches_scalar(self, x, hit);
        Ok(hit)
    }

    /// One best-two BMU search per row of `data`, batched — the primitive
    /// behind [`Som::map_rows`], [`Som::project`], and
    /// [`crate::quality::BmuTable`]. Parallelizes over row chunks for large
    /// inputs; for a (squared) Euclidean metric each chunk runs the
    /// norm-trick search against one transposed codebook, with per-chunk
    /// scratch buffers.
    ///
    /// Results (unit indices and distances) are identical to the per-row
    /// scalar scan behind [`Som::bmu`] and [`Som::bmu2`], for any worker
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::DimensionMismatch`] if the column count differs.
    pub fn bmu_batch(&self, data: &Matrix) -> Result<Vec<crate::quality::BmuHit>, SomError> {
        if data.nrows() == 0 {
            return Ok(Vec::new());
        }
        if data.ncols() != self.dim() {
            return Err(SomError::DimensionMismatch {
                expected: self.dim(),
                actual: data.ncols(),
            });
        }
        let prep = self
            .blocked_applicable()
            .then(|| PreparedCodebook::new(self));
        let chunks = parallel::try_map_chunks(data.nrows(), BMU_CHUNKING, |rows| {
            let mut search = prep
                .as_ref()
                .map(|p| SearchScratch::with_norms(p.unit_norms.clone()));
            rows.map(|r| {
                let ((best, best_distance), (second, _)) =
                    self.exact_best_two(data.row(r), prep.as_ref(), search.as_mut())?;
                Ok(crate::quality::BmuHit {
                    best,
                    second,
                    best_distance,
                })
            })
            .collect::<Result<Vec<_>, SomError>>()
        })
        .map_err(SomError::from)?;
        Ok(chunks.into_iter().flatten().collect())
    }

    /// One exact best-two search: the blocked search against a prepared
    /// codebook when the metric allows it, the scalar scan otherwise.
    fn exact_best_two(
        &self,
        x: &[f64],
        prep: Option<&PreparedCodebook>,
        search: Option<&mut SearchScratch>,
    ) -> Result<BestTwo, SomError> {
        match (prep, search) {
            (Some(p), Some(scratch)) => self.blocked_best_two_wt(x, &p.wt, scratch),
            _ => self.scalar_best_two(x),
        }
    }

    /// Squared L2 norms of every unit weight vector (the precomputed half of
    /// the norm trick).
    fn unit_norms(&self) -> Vec<f64> {
        let mut norms = vec![0.0; self.grid.len()];
        kernels::row_sq_norms_into(&self.weights, &mut norms);
        norms
    }

    /// Maps every row of `data` to its BMU index, parallelizing the search
    /// over row chunks for large inputs via the shared map-reduce helper.
    /// Results are identical to a serial row-by-row search (each row's BMU
    /// is independent), and worker errors propagate as `Err` rather than
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::DimensionMismatch`] if the column count differs.
    pub fn map_rows(&self, data: &Matrix) -> Result<Vec<usize>, SomError> {
        Ok(self.bmu_batch(data)?.into_iter().map(|h| h.best).collect())
    }

    /// Maps every row of `data` to its BMU's location vector on the map
    /// plane — the reduced 2-D coordinates handed to the clustering stage.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::DimensionMismatch`] if the column count differs.
    pub fn project(&self, data: &Matrix) -> Result<Matrix, SomError> {
        let mut out = Matrix::zeros(data.nrows(), 2);
        for (r, bmu) in self.map_rows(data)?.into_iter().enumerate() {
            let loc = self.grid.location(bmu);
            out[(r, 0)] = loc[0];
            out[(r, 1)] = loc[1];
        }
        Ok(out)
    }

    fn train_online(
        &mut self,
        data: &Matrix,
        cfg: &SomBuilder,
        sigma: DecaySchedule,
        rng: &mut StdRng,
        mut history: Option<&mut Vec<f64>>,
        telemetry: &mut Telemetry,
    ) -> Result<(), SomError> {
        let total = cfg.epochs * data.nrows();
        debug_assert!(cfg.alpha.is_monotone_decreasing(total));
        debug_assert!(sigma.is_monotone_decreasing(total));
        // Pairwise unit distances honor the grid topology (planar for
        // rectangular/hexagonal, wrap-around for toroidal).
        let unit_count = self.grid.len();
        let n = data.nrows();
        let distances: Vec<f64> = (0..unit_count * unit_count)
            .map(|i| self.grid.unit_distance(i / unit_count, i % unit_count))
            .collect();
        // Hot-loop telemetry stays in plain locals; the shared collector is
        // only touched once per epoch when the buffer is flushed.
        let mut buf = CounterBuf::new();
        let mut kernel_evals = 0u64;
        let mut epoch_started = telemetry.epoch_start();
        let mut last_sigma;
        // The online loop is inherently serial, so its timeline is one lane:
        // one interval per epoch (chunk = epoch index) on worker 0, sized up
        // front so the hot loop never allocates.
        let lane_clock = telemetry.collector.lane_clock();
        let mut lane_buf = lane_clock.map(|_| LaneBuf::with_capacity(cfg.epochs));
        let mut lane_begin = lane_clock.map_or(0, |c| c.now_us());
        // Steady-state scratch for the blocked BMU search: unit norms are
        // maintained incrementally as weights move (recomputed exactly for
        // just the units each step touches), so the per-step search performs
        // no heap allocation.
        let mut search = self
            .blocked_applicable()
            .then(|| SearchScratch::with_norms(self.unit_norms()));
        for step in 0..total {
            if let Some(h) = history.as_deref_mut() {
                if step % n == n - 1 {
                    h.push(self.mean_quantization_error(data)?);
                }
            }
            let x = data.row(rng.gen_range(0..n));
            let bmu = match search.as_mut() {
                Some(scratch) => self.blocked_best_two(x, scratch)?.0 .0,
                None => self.bmu(x)?,
            };
            let alpha = cfg.alpha.at(step, total);
            let s = sigma.at(step, total);
            last_sigma = s;
            let support = cfg.kernel.support_radius(s, 1e-4);
            for u in 0..unit_count {
                let d = distances[bmu * unit_count + u];
                if d > support && u != bmu {
                    continue;
                }
                kernel_evals += 1;
                let h = alpha * cfg.kernel.value(d, s);
                if h == 0.0 {
                    continue;
                }
                let w = self.weights.row_mut(u);
                for (wi, xi) in w.iter_mut().zip(x) {
                    *wi += h * (xi - *wi);
                }
                if let Some(scratch) = search.as_mut() {
                    scratch.unit_norms[u] = kernels::sq_norm_fast(self.weights.row(u));
                }
            }
            if step % n == n - 1 {
                buf.add(Counter::BmuSearches, n as u64);
                buf.add(Counter::DistanceEvaluations, (n * unit_count) as u64);
                buf.add(Counter::KernelEvaluations, kernel_evals);
                kernel_evals = 0;
                if let (Some(clock), Some(lanes)) = (lane_clock, lane_buf.as_mut()) {
                    lanes.record(step / n, 0, lane_begin, clock.now_us());
                }
                let epoch = step / n;
                let record = if telemetry.wants_record(epoch) {
                    Some(self.resident_record(data, epoch, last_sigma, &mut buf)?)
                } else {
                    None
                };
                telemetry.epoch_end(epoch, epoch_started, &mut buf, record, None);
                epoch_started = telemetry.epoch_start();
                lane_begin = lane_clock.map_or(0, |c| c.now_us());
            }
        }
        if let Some(lanes) = lane_buf.as_mut() {
            lanes.end_run();
            telemetry
                .collector
                .attach_lanes(stages::LANE_SOM_ONLINE_EPOCHS, cfg.epochs, lanes);
        }
        Ok(())
    }

    /// Batch training: per epoch, every unit's weight is recomputed as the
    /// kernel-weighted mean of all samples. The learning-rate schedule plays
    /// no role here (batch updates jump straight to the weighted mean), so
    /// only the kernel, epoch count and warm start are taken from `cfg`.
    ///
    /// Resident and streamed input take this one path: rows arrive strip by
    /// strip from `source` into one reusable buffer. Within a strip, each
    /// worker claims the next 64-row chunk, searches its BMUs and
    /// accumulates it into the worker's own partial; the partials then fold
    /// into the running totals in ascending chunk order. The strips tile
    /// one global chunk grid, so the summation order, and therefore every
    /// bit of the result, depends neither on the worker count nor on how
    /// the rows are split into strips.
    ///
    /// Under [`WarmStart::Enabled`] (and the triangle-inequality metric,
    /// [`Metric::Euclidean`]), rows whose cached BMU is certified by the
    /// drift bound skip their search entirely; every other row rescans
    /// exactly and refreshes its certificate in place (rows are disjoint
    /// across chunks). The certified rows would have produced the same
    /// index, so the accumulation sees identical BMUs and the weights stay
    /// bitwise identical to the cold path's.
    fn train_batch(
        &mut self,
        source: &mut dyn RowSource,
        cfg: &SomBuilder,
        sigma: DecaySchedule,
        mut history: Option<&mut Vec<f64>>,
        telemetry: &mut Telemetry,
    ) -> Result<(), SomError> {
        let n = source.nrows();
        let dim = source.ncols();
        let units = self.grid.len();
        let (epochs, kernel) = (cfg.epochs, cfg.kernel);
        let chunk = BATCH_CHUNKING.chunk_size;
        let distances: Vec<f64> = (0..units * units)
            .map(|i| self.grid.unit_distance(i / units, i % units))
            .collect();
        // The per-epoch kernel table: every sample with the same BMU reads
        // the same `units` kernel values, so evaluate them once per epoch
        // into a `units²` table instead of `n·units` times.
        let mut kernel_table =
            (units <= KERNEL_TABLE_MAX_UNITS && n >= units).then(|| vec![0.0f64; units * units]);
        let mut support = kernel_table.is_some().then(|| KernelSupport::new(units));
        let mut buf = CounterBuf::new();
        let mut epoch_started = telemetry.epoch_start();
        // One prepared codebook for the whole run, refreshed in place after
        // each weight update and shared by every search of the next epoch
        // (including the sampled quality pass).
        let mut prep = self
            .blocked_applicable()
            .then(|| PreparedCodebook::new(self));
        // The warm cache is the one O(n) structure here (24 bytes per row);
        // disable warm starts for a strictly n-free ceiling.
        let mut warm = (cfg.warm_start == WarmStart::Enabled
            && matches!(self.metric, Metric::Euclidean))
        .then(|| WarmState::new(n, &self.weights));
        // All scratch is allocated here, once: the strip, the totals, and
        // one `BatchWorker` per worker. Inputs under the parallel threshold
        // run the same loop with one worker on the calling thread.
        let strip_rows = STREAM_STRIP_ROWS.min(n);
        let mut strip = vec![0.0f64; strip_rows * dim];
        let worker_count = if n < BATCH_CHUNKING.min_parallel_len {
            1
        } else {
            parallel::worker_count().clamp(1, strip_rows.div_ceil(chunk))
        };
        let mut workers: Vec<BatchWorker> = (0..worker_count)
            .map(|id| BatchWorker::new(id, units, dim, prep.as_ref()))
            .collect();
        let mut numer = Matrix::zeros(units, dim);
        let mut denom = vec![0.0f64; units];
        // One lane interval per 64-row chunk and epoch, recorded at the
        // chunk's fold (so in chunk order): the structure depends only on
        // `n` and the epoch count, never on the worker count. Buffers are
        // sized for every epoch up front.
        let lane_clock = telemetry.collector.lane_clock();
        let n_chunks = n.div_ceil(chunk);
        let mut bmu_lanes = lane_clock.map(|_| LaneBuf::with_capacity(epochs * n_chunks));
        let mut acc_lanes = lane_clock.map(|_| LaneBuf::with_capacity(epochs * n_chunks));
        for epoch in 0..epochs {
            let s = sigma.at(epoch, epochs.saturating_sub(1).max(1));
            if let Some(table) = kernel_table.as_mut() {
                for (h, &d) in table.iter_mut().zip(&distances) {
                    *h = kernel.value(d, s);
                }
                if let Some(sup) = support.as_mut() {
                    sup.rebuild(table, units);
                }
            }
            let ctx = EpochKernel {
                distances: &distances,
                table: kernel_table.as_deref(),
                support: support.as_ref(),
                units,
                kernel,
                sigma: s,
            };
            numer.fill(0.0);
            denom.fill(0.0);
            for (strip_index, start) in (0..n).step_by(STREAM_STRIP_ROWS).enumerate() {
                let count = (n - start).min(STREAM_STRIP_ROWS);
                source.load_rows(start, count, &mut strip[..count * dim])?;
                telemetry.strip(epoch, strip_index, n.div_ceil(STREAM_STRIP_ROWS));
                let rows = &strip[..count * dim];
                let mut warm_chunks = warm.as_mut().map(|w| {
                    let (slots, bounds) = w.rows_mut();
                    (slots[start..start + count].chunks_mut(chunk), bounds)
                });
                let parts = (0..count).step_by(chunk).map(|r| {
                    let warm = warm_chunks
                        .as_mut()
                        .and_then(|(slots, bounds)| Some((slots.next()?, *bounds)));
                    (&rows[r * dim..(r + chunk).min(count) * dim], warm)
                });
                let (som, prep) = (&*self, prep.as_ref());
                let first_chunk = start / chunk;
                parallel::try_fold_ordered(
                    &mut workers[..count.div_ceil(chunk).min(worker_count)],
                    parts,
                    |w, _, (xs, warm)| w.train_chunk(som, xs, warm, prep, &ctx, lane_clock),
                    |w, c| {
                        fold_partials(&mut numer, &mut denom, &w.part_numer, &w.part_denom);
                        if let (Some(bl), Some(al)) = (bmu_lanes.as_mut(), acc_lanes.as_mut()) {
                            let [search, accumulate, end] = w.stamps;
                            bl.record(first_chunk + c, w.id, search, accumulate);
                            al.record(first_chunk + c, w.id, accumulate, end);
                        }
                    },
                )
                .map_err(SomError::from)?;
            }
            for lanes in [bmu_lanes.as_mut(), acc_lanes.as_mut()]
                .into_iter()
                .flatten()
            {
                lanes.end_run();
            }
            write_batch_weights(&mut self.weights, &numer, &denom);
            // Post-update bookkeeping: the warm cache diffs the codebook
            // against its snapshot, and the prepared codebook (and each
            // worker's copy of its norms) is refreshed for every search
            // that follows — the quality pass below and the next epoch.
            if let Some(w) = warm.as_mut() {
                w.advance_epoch(&self.weights, self.metric)?;
            }
            if let Some(p) = prep.as_mut() {
                p.refresh(self);
                for w in &mut workers {
                    if let Some(search) = w.search.as_mut() {
                        search.unit_norms.copy_from_slice(&p.unit_norms);
                    }
                }
            }
            buf.add(Counter::BmuSearches, n as u64);
            buf.add(Counter::DistanceEvaluations, (n * units) as u64);
            // Every (sample, unit) pair counts as one kernel evaluation,
            // whether tabulated, skipped as zero support, or evaluated.
            buf.add(Counter::KernelEvaluations, (n * units) as u64);
            let (mut hits, mut rescans) = (0u64, 0u64);
            for w in &mut workers {
                hits += std::mem::take(&mut w.warm_hits);
                rescans += std::mem::take(&mut w.rescans);
            }
            let warm_hit_rate = warm.as_ref().and_then(|_| {
                let total = hits + rescans;
                (total > 0).then(|| hits as f64 / total as f64)
            });
            if warm.is_some() {
                buf.add(Counter::BmuWarmHits, hits);
                buf.add(Counter::BmuExactRescans, rescans);
            }
            let wants_record = telemetry.wants_record(epoch);
            let quality = if wants_record || history.is_some() {
                Some(self.strip_quality(source, &mut strip, &mut workers, prep.as_ref())?)
            } else {
                None
            };
            if let (Some(h), Some((qe, _))) = (history.as_deref_mut(), quality) {
                h.push(qe);
            }
            let record = quality.filter(|_| wants_record).map(|(qe, te)| {
                buf.add(Counter::BmuSearches, n as u64);
                buf.add(Counter::DistanceEvaluations, (n * units) as u64);
                EpochRecord {
                    epoch,
                    quantization_error: qe,
                    topographic_error: te,
                    sigma: s,
                    warm_hit_rate,
                }
            });
            telemetry.epoch_end(epoch, epoch_started, &mut buf, record, warm_hit_rate);
            epoch_started = telemetry.epoch_start();
        }
        if let Some(lanes) = bmu_lanes.as_ref() {
            telemetry
                .collector
                .attach_lanes(stages::LANE_SOM_BMU_BATCH, n_chunks, lanes);
        }
        if let Some(lanes) = acc_lanes.as_ref() {
            telemetry
                .collector
                .attach_lanes(stages::LANE_SOM_BATCH_ACCUMULATE, n_chunks, lanes);
        }
        Ok(())
    }

    /// One exact best-two pass over `source` on the batch workers, strip by
    /// strip: the quantization error, with the distances summed in row
    /// order exactly as [`BmuTable::quantization_error`] sums them, and the
    /// topographic error.
    fn strip_quality(
        &self,
        source: &mut dyn RowSource,
        strip: &mut [f64],
        workers: &mut [BatchWorker],
        prep: Option<&PreparedCodebook>,
    ) -> Result<(f64, f64), SomError> {
        let n = source.nrows();
        let dim = source.ncols();
        let chunk = BATCH_CHUNKING.chunk_size;
        let mut total = 0.0f64;
        let mut errors = 0usize;
        let worker_count = workers.len();
        for start in (0..n).step_by(STREAM_STRIP_ROWS) {
            let count = (n - start).min(STREAM_STRIP_ROWS);
            source.load_rows(start, count, &mut strip[..count * dim])?;
            let rows = &strip[..count * dim];
            parallel::try_fold_ordered(
                &mut workers[..count.div_ceil(chunk).min(worker_count)],
                (0..count)
                    .step_by(chunk)
                    .map(|r| &rows[r * dim..(r + chunk).min(count) * dim]),
                |w, _, xs| w.quality_chunk(self, xs, prep),
                |w, _| {
                    for &d in &w.dists[..w.rows] {
                        total += d;
                    }
                    errors += std::mem::take(&mut w.topographic_errors);
                },
            )
            .map_err(SomError::from)?;
        }
        let topographic_error = if self.grid.len() < 2 {
            0.0
        } else {
            errors as f64 / n as f64
        };
        Ok((total / n as f64, topographic_error))
    }

    /// A sampled epoch's quality record for the online trainer: one
    /// best-two pass over the resident rows, counted as `n` searches.
    fn resident_record(
        &self,
        data: &Matrix,
        epoch: usize,
        sigma: f64,
        buf: &mut CounterBuf,
    ) -> Result<EpochRecord, SomError> {
        let n = data.nrows() as u64;
        let table = BmuTable::compute(self, data)?;
        buf.add(Counter::BmuSearches, n);
        buf.add(Counter::DistanceEvaluations, n * self.grid.len() as u64);
        let topographic_error = if self.grid.len() < 2 {
            0.0
        } else {
            table.topographic_error(self)?
        };
        Ok(EpochRecord {
            epoch,
            quantization_error: table.quantization_error(),
            topographic_error,
            sigma,
            warm_hit_rate: None,
        })
    }

    /// Mean distance of every row to its BMU — used for training histories
    /// (the public metric lives in [`crate::quality`]).
    fn mean_quantization_error(&self, data: &Matrix) -> Result<f64, SomError> {
        Ok(BmuTable::compute(self, data)?.quantization_error())
    }
}

/// Per-epoch constants shared by every batch worker's accumulation. When
/// the per-epoch kernel table is materialized, `table` holds
/// `kernel.value(distances[i], sigma)` for every unit pair — the exact
/// values the fallback computes on the fly.
struct EpochKernel<'a> {
    distances: &'a [f64],
    table: Option<&'a [f64]>,
    support: Option<&'a KernelSupport>,
    units: usize,
    kernel: NeighborhoodKernel,
    sigma: f64,
}

/// Per-epoch bounded-support index over the kernel table: for each BMU, the
/// ascending unit indices whose kernel value is nonzero. Bounded-support
/// kernels ([`NeighborhoodKernel::Bubble`], [`NeighborhoodKernel::CutGaussian`])
/// and underflowed Gaussian tails make most of a late-epoch table exactly
/// `0.0`; those units contribute nothing to the accumulators, so the
/// accumulation walk can skip them without touching a single bit of the
/// result. Rebuilt in place each epoch (the capacity is reserved once), and
/// only ever consulted together with the table it indexes.
struct KernelSupport {
    /// CSR row offsets, `units + 1` entries.
    offsets: Vec<usize>,
    /// Concatenated ascending unit indices with nonzero kernel per BMU.
    indices: Vec<usize>,
}

impl KernelSupport {
    fn new(units: usize) -> Self {
        KernelSupport {
            offsets: vec![0; units + 1],
            // Worst case (a kernel with no zeros) is the full table; reserve
            // it up front so per-epoch rebuilds never allocate.
            indices: Vec::with_capacity(units * units),
        }
    }

    fn rebuild(&mut self, table: &[f64], units: usize) {
        self.indices.clear();
        for (bmu, row) in table.chunks_exact(units).enumerate() {
            for (u, &h) in row.iter().enumerate() {
                if h != 0.0 {
                    self.indices.push(u);
                }
            }
            self.offsets[bmu + 1] = self.indices.len();
        }
    }

    fn units_for(&self, bmu: usize) -> &[usize] {
        &self.indices[self.offsets[bmu]..self.offsets[bmu + 1]]
    }
}

/// Adds one sample's kernel-weighted contribution to the accumulators.
fn accumulate_sample(
    x: &[f64],
    bmu: usize,
    ctx: &EpochKernel<'_>,
    numer: &mut Matrix,
    denom: &mut [f64],
) {
    if let (Some(t), Some(support)) = (ctx.table, ctx.support) {
        // Bounded-support walk: visit only the units whose tabulated kernel
        // is nonzero, in the same ascending order the full loop uses. The
        // skipped units contributed exactly nothing there (the `h == 0.0`
        // guard below runs no arithmetic), so the accumulator bits are
        // identical.
        let row_kernels = &t[bmu * ctx.units..(bmu + 1) * ctx.units];
        for &u in support.units_for(bmu) {
            let h = row_kernels[u];
            denom[u] += h;
            let row = numer.row_mut(u);
            for (acc, xi) in row.iter_mut().zip(x) {
                *acc += h * xi;
            }
        }
        return;
    }
    for (u, dn) in denom.iter_mut().enumerate().take(ctx.units) {
        let h = ctx
            .kernel
            .value(ctx.distances[bmu * ctx.units + u], ctx.sigma);
        if h == 0.0 {
            continue;
        }
        *dn += h;
        let row = numer.row_mut(u);
        for (acc, xi) in row.iter_mut().zip(x) {
            *acc += h * xi;
        }
    }
}

/// Folds one chunk's partial accumulators into the running totals (always
/// called in ascending chunk order).
fn fold_partials(numer: &mut Matrix, denom: &mut [f64], part_numer: &Matrix, part_denom: &[f64]) {
    for u in 0..denom.len() {
        let row = numer.row_mut(u);
        for (acc, p) in row.iter_mut().zip(part_numer.row(u)) {
            *acc += p;
        }
    }
    for (acc, p) in denom.iter_mut().zip(part_denom) {
        *acc += p;
    }
}

/// Writes the accumulated kernel-weighted means back into the codebook.
fn write_batch_weights(weights: &mut Matrix, numer: &Matrix, denom: &[f64]) {
    for (u, &total) in denom.iter().enumerate() {
        if total > 0.0 {
            let row = weights.row_mut(u);
            for (w, acc) in row.iter_mut().zip(numer.row(u)) {
                *w = acc / total;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Blocked searches checked against the scalar scan so far, across all
    /// test threads (the count only grows, so a test can read its own
    /// searches as a lower bound on the difference).
    static SCALAR_CHECKS: AtomicU64 = AtomicU64::new(0);

    /// The oracle behind [`Som::refine_from_trick`] in test builds: a
    /// blocked search must return the scalar scan's best and runner-up
    /// units and both distances' bits.
    pub(super) fn assert_matches_scalar(som: &Som, x: &[f64], hit: BestTwo) {
        let bits = |((b, db), (s, ds)): BestTwo| (b, db.to_bits(), s, ds.to_bits());
        let scalar = som.scalar_best_two(x).expect("scalar scan");
        assert_eq!(bits(hit), bits(scalar), "blocked search != scalar scan");
        SCALAR_CHECKS.fetch_add(1, Ordering::Relaxed);
    }

    proptest! {
        /// Every BMU search of online training (one per step, against unit
        /// norms the loop maintains as weights move) and of batch training
        /// (against the per-epoch prepared codebook) passes the scalar
        /// oracle. Variant bits pick the metric, the mode, and integer
        /// data, whose duplicate rows and equidistant units exercise ties.
        #[test]
        fn training_searches_match_the_scalar_scan(
            values in prop::collection::vec(-1e2..1e2f64, 8 * 3),
            width in 2usize..5,
            height in 1usize..5,
            seed in 0u64..1000,
            variant in 0u8..8,
        ) {
            let values = if variant & 4 == 0 {
                values
            } else {
                values.iter().map(|v| (v / 25.0).round()).collect()
            };
            let data = Matrix::from_vec(8, 3, values).unwrap();
            let metric = if variant & 1 == 0 { Metric::Euclidean } else { Metric::SquaredEuclidean };
            let mode = if variant & 2 == 0 { TrainingMode::Online } else { TrainingMode::Batch };
            let epochs = 12;
            let before = SCALAR_CHECKS.load(Ordering::Relaxed);
            SomBuilder::new(width, height)
                .seed(seed)
                .epochs(epochs)
                .metric(metric)
                .mode(mode)
                .train(&data)
                .unwrap();
            let checked = SCALAR_CHECKS.load(Ordering::Relaxed) - before;
            // Online searches once per step; batch scans every row exactly
            // at least in the first epoch, before any warm certificate.
            let searches = match mode {
                TrainingMode::Online => epochs * data.nrows(),
                TrainingMode::Batch => data.nrows(),
            };
            prop_assert!(checked >= searches as u64, "{checked} < {searches}");
        }
    }

    fn blobs() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0, 0.1],
            vec![0.1, 0.0, 0.0],
            vec![0.0, 0.1, 0.0],
            vec![5.0, 5.0, 5.1],
            vec![5.1, 5.0, 5.0],
            vec![5.0, 5.1, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn heuristic_map_size_tracks_five_sqrt_n() {
        // Floors at 2x2 for tiny inputs, including n = 0.
        assert_eq!(heuristic_map_size(0), (2, 2));
        assert_eq!(heuristic_map_size(1), (2, 2));
        assert_eq!(heuristic_map_size(13), (4, 4)); // the paper's suites
        let mut prev = 0;
        for n in [100usize, 1_000, 10_000, 100_000] {
            let (w, h) = heuristic_map_size(n);
            assert_eq!(w, h, "square lattice");
            let units = (w * h) as f64;
            let target = 5.0 * (n as f64).sqrt();
            // Squaring a rounded side cannot be exact; stay within 2x.
            assert!(
                units > target / 2.0 && units < target * 2.0,
                "n={n}: {units} units vs target {target}"
            );
            assert!(w > prev, "map grows with n");
            prev = w;
        }
    }

    #[test]
    fn heuristic_grid_trains() {
        let som = SomBuilder::heuristic_grid(6)
            .seed(3)
            .epochs(10)
            .train(&blobs())
            .unwrap();
        let expect = heuristic_map_size(6);
        assert_eq!((som.grid().width(), som.grid().height()), expect);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let a = SomBuilder::new(4, 4)
            .seed(9)
            .epochs(20)
            .train(&blobs())
            .unwrap();
        let b = SomBuilder::new(4, 4)
            .seed(9)
            .epochs(20)
            .train(&blobs())
            .unwrap();
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SomBuilder::new(4, 4)
            .seed(1)
            .initializer(Initializer::Random)
            .epochs(5)
            .train(&blobs())
            .unwrap();
        let b = SomBuilder::new(4, 4)
            .seed(2)
            .initializer(Initializer::Random)
            .epochs(5)
            .train(&blobs())
            .unwrap();
        assert_ne!(a.weights(), b.weights());
    }

    #[test]
    fn separates_blobs() {
        let data = blobs();
        let som = SomBuilder::new(5, 5)
            .seed(3)
            .epochs(60)
            .train(&data)
            .unwrap();
        let pos = som.map_rows(&data).unwrap();
        // All pairs within a blob are at most as far apart on the map as any
        // cross-blob pair.
        let g = som.grid();
        let mut max_within = 0f64;
        let mut min_between = f64::INFINITY;
        for i in 0..6 {
            for j in (i + 1)..6 {
                let d = g.unit_distance(pos[i], pos[j]);
                if (i < 3) == (j < 3) {
                    max_within = max_within.max(d);
                } else {
                    min_between = min_between.min(d);
                }
            }
        }
        assert!(
            max_within <= min_between,
            "within {max_within} vs between {min_between}"
        );
    }

    #[test]
    fn bmu_is_argmin() {
        let data = blobs();
        let som = SomBuilder::new(4, 4)
            .seed(5)
            .epochs(10)
            .train(&data)
            .unwrap();
        let x = data.row(0);
        let bmu = som.bmu(x).unwrap();
        let db = som.metric().distance(x, som.weights().row(bmu)).unwrap();
        for u in 0..som.grid().len() {
            let d = som.metric().distance(x, som.weights().row(u)).unwrap();
            assert!(db <= d + 1e-12);
        }
    }

    #[test]
    fn bmu2_returns_distinct_units() {
        let data = blobs();
        let som = SomBuilder::new(4, 4)
            .seed(5)
            .epochs(10)
            .train(&data)
            .unwrap();
        let (b1, b2) = som.bmu2(data.row(0)).unwrap();
        assert_ne!(b1, b2);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let som = SomBuilder::new(3, 3)
            .seed(1)
            .epochs(5)
            .train(&blobs())
            .unwrap();
        assert!(matches!(
            som.bmu(&[1.0, 2.0]).unwrap_err(),
            SomError::DimensionMismatch {
                expected: 3,
                actual: 2
            }
        ));
    }

    #[test]
    fn rejects_empty_and_bad_config() {
        let data = blobs();
        assert!(matches!(
            SomBuilder::new(0, 3).train(&data).unwrap_err(),
            SomError::InvalidConfig { .. }
        ));
        assert!(matches!(
            SomBuilder::new(3, 3).epochs(0).train(&data).unwrap_err(),
            SomError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn rejects_invalid_schedules_at_train_time() {
        let data = blobs();
        // Exponential with a zero endpoint used to hit a debug_assert (or
        // silently produce NaN weights in release); now it is a real error.
        let err = SomBuilder::new(3, 3)
            .alpha(DecaySchedule::Exponential {
                start: 0.5,
                end: 0.0,
            })
            .train(&data)
            .unwrap_err();
        assert!(matches!(err, SomError::Schedule { name: "alpha", .. }));
        let err = SomBuilder::new(3, 3)
            .sigma(DecaySchedule::InverseTime {
                start: 2.0,
                c: -1.0,
            })
            .train(&data)
            .unwrap_err();
        assert!(matches!(err, SomError::Schedule { name: "sigma", .. }));
    }

    #[test]
    fn rejects_nan_data() {
        let mut data = blobs();
        data[(0, 0)] = f64::NAN;
        assert!(SomBuilder::new(3, 3).train(&data).is_err());
    }

    #[test]
    fn batch_training_separates_blobs() {
        let data = blobs();
        let som = SomBuilder::new(5, 5)
            .seed(3)
            .epochs(30)
            .mode(TrainingMode::Batch)
            .train(&data)
            .unwrap();
        let pos = som.map_rows(&data).unwrap();
        let g = som.grid();
        assert!(g.unit_distance(pos[0], pos[1]) <= g.unit_distance(pos[0], pos[3]));
    }

    #[test]
    fn project_produces_2d() {
        let data = blobs();
        let som = SomBuilder::new(4, 4)
            .seed(7)
            .epochs(10)
            .train(&data)
            .unwrap();
        let p = som.project(&data).unwrap();
        assert_eq!(p.shape(), (6, 2));
        for v in p.as_slice() {
            assert!(*v >= 0.0 && *v <= 3.0);
        }
    }

    #[test]
    fn pca_init_on_wide_data() {
        // More columns than rows: PCA init must use the dual path and work.
        let data = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 2.0, 1.0],
            vec![0.9, 0.1, 0.0, 2.1, 1.1],
            vec![0.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.1, 0.9, 1.1, 0.1, 0.0],
        ])
        .unwrap();
        let som = SomBuilder::new(4, 4)
            .initializer(Initializer::PcaPlane)
            .seed(11)
            .epochs(30)
            .train(&data)
            .unwrap();
        let pos = som.map_rows(&data).unwrap();
        let g = som.grid();
        assert!(g.unit_distance(pos[0], pos[1]) <= g.unit_distance(pos[0], pos[2]));
    }

    #[test]
    fn training_history_decreases() {
        for mode in [TrainingMode::Online, TrainingMode::Batch] {
            let (_, history) = SomBuilder::new(5, 5)
                .seed(3)
                .epochs(60)
                .mode(mode)
                .train_with_history(&blobs())
                .unwrap();
            assert_eq!(history.len(), 60);
            let first = history[0];
            let last = *history.last().unwrap();
            assert!(last <= first + 1e-9, "{mode:?}: {first} -> {last}");
        }
    }

    #[test]
    fn history_does_not_change_the_trained_map() {
        let plain = SomBuilder::new(4, 4)
            .seed(9)
            .epochs(20)
            .train(&blobs())
            .unwrap();
        let (traced, _) = SomBuilder::new(4, 4)
            .seed(9)
            .epochs(20)
            .train_with_history(&blobs())
            .unwrap();
        assert_eq!(plain.weights(), traced.weights());
    }

    #[test]
    fn batch_quality_pass_matches_map_quality() {
        // The batch trainer's strip-wise quality pass (history and sampled
        // records) must give the bits `map_quality` gives on the final map;
        // 300 rows put several workers on it.
        let data = Matrix::from_rows(
            &(0..300)
                .map(|i| vec![(i % 7) as f64 * 0.3, (i % 5) as f64, (i % 3) as f64 * 1.7])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let builder = SomBuilder::new(4, 3)
            .seed(3)
            .epochs(5)
            .mode(TrainingMode::Batch);
        let (som, history) = builder.train_with_history(&data).unwrap();
        let collector = Collector::enabled();
        builder.train_traced(&data, &collector).unwrap();
        let last = *collector.report().unwrap().som_epochs.last().unwrap();
        let quality = crate::quality::map_quality(&som, &data).unwrap();
        assert_eq!(history.len(), 5);
        assert_eq!(history[4].to_bits(), quality.quantization_error.to_bits());
        assert_eq!(
            last.quantization_error.to_bits(),
            quality.quantization_error.to_bits()
        );
        assert_eq!(
            last.topographic_error.to_bits(),
            quality.topographic_error.to_bits()
        );
    }

    #[test]
    fn map_rows_propagates_worker_errors() {
        // Enough rows to cross the parallel threshold: a dimension mismatch
        // inside a worker must surface as Err, not a panic.
        let som = SomBuilder::new(3, 3)
            .seed(1)
            .epochs(5)
            .train(&blobs())
            .unwrap();
        let wrong_dim = Matrix::zeros(512, 2);
        assert!(matches!(
            som.map_rows(&wrong_dim).unwrap_err(),
            SomError::DimensionMismatch {
                expected: 3,
                actual: 2
            }
        ));
    }

    #[test]
    fn batch_training_identical_across_worker_counts() {
        // 300 rows crosses the 256-row parallel threshold for both the BMU
        // search and the batch accumulation.
        let data = Matrix::from_rows(
            &(0..300)
                .map(|i| {
                    let base = if i % 2 == 0 { 0.0 } else { 5.0 };
                    vec![base + (i as f64) * 1e-3, base - (i as f64) * 2e-3]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let train = || {
            SomBuilder::new(4, 4)
                .seed(7)
                .epochs(3)
                .mode(TrainingMode::Batch)
                .train(&data)
                .unwrap()
        };
        hiermeans_linalg::parallel::set_worker_override(Some(1));
        let serial = train();
        hiermeans_linalg::parallel::set_worker_override(Some(8));
        let parallel = train();
        hiermeans_linalg::parallel::set_worker_override(None);
        let auto = train();
        assert_eq!(serial.weights(), parallel.weights());
        assert_eq!(serial.weights(), auto.weights());
    }

    #[test]
    fn batch_lane_structure_is_worker_count_invariant() {
        // 300 rows crosses the parallel threshold, so workers=1 takes the
        // serial scratch path and workers=8 the threaded helper — the
        // structural lane fingerprint must not notice.
        let data = Matrix::from_rows(
            &(0..300)
                .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let lane_lines = |workers: Option<usize>| {
            hiermeans_linalg::parallel::set_worker_override(workers);
            let collector = Collector::enabled();
            SomBuilder::new(4, 4)
                .seed(7)
                .epochs(3)
                .mode(TrainingMode::Batch)
                .train_traced(&data, &collector)
                .unwrap();
            hiermeans_linalg::parallel::set_worker_override(None);
            collector.report().unwrap().lane_fingerprint()
        };
        let serial = lane_lines(Some(1));
        let threaded = lane_lines(Some(8));
        assert_eq!(serial, threaded);
        for stage in [
            stages::LANE_SOM_BMU_BATCH,
            stages::LANE_SOM_BATCH_ACCUMULATE,
        ] {
            assert!(serial.contains(stage), "missing {stage} in {serial}");
        }
    }

    #[test]
    fn online_lane_records_one_interval_per_epoch() {
        let collector = Collector::enabled();
        SomBuilder::new(4, 4)
            .seed(9)
            .epochs(20)
            .train_traced(&blobs(), &collector)
            .unwrap();
        let report = collector.report().unwrap();
        let lane = report.lane(stages::LANE_SOM_ONLINE_EPOCHS).unwrap();
        assert_eq!(lane.n_chunks, 20);
        assert_eq!(lane.runs, 1);
        assert_eq!(lane.intervals.len(), 20);
        assert!(lane.workers.len() == 1 && lane.workers[0].worker == 0);
    }

    #[test]
    fn hexagonal_training_works() {
        let som = SomBuilder::new(4, 4)
            .topology(GridTopology::Hexagonal)
            .seed(2)
            .epochs(10)
            .train(&blobs())
            .unwrap();
        assert_eq!(som.grid().topology(), GridTopology::Hexagonal);
    }

    #[test]
    fn toroidal_training_separates_blobs() {
        let data = blobs();
        let som = SomBuilder::new(6, 6)
            .topology(GridTopology::Toroidal)
            .seed(4)
            .epochs(60)
            .train(&data)
            .unwrap();
        let pos = som.map_rows(&data).unwrap();
        let g = som.grid();
        // Same-blob rows land at most as far apart (torus metric) as
        // cross-blob rows.
        let d_same = g.unit_distance(pos[0], pos[1]);
        let d_diff = g.unit_distance(pos[0], pos[3]);
        assert!(d_same <= d_diff, "same {d_same} vs diff {d_diff}");
    }
}
