#ifndef VUPRED_CORE_FORECASTER_H_
#define VUPRED_CORE_FORECASTER_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "core/feature_selection.h"
#include "core/windowing.h"
#include "ml/baselines.h"
#include "ml/gradient_boosting.h"
#include "ml/lasso.h"
#include "ml/model.h"
#include "ml/scaler.h"
#include "ml/svr.h"
#include "pipeline/dataset.h"

namespace vup {

/// The six forecasting methods the paper compares (Section 3):
/// two naive baselines and four regression algorithms.
enum class Algorithm : int {
  kLastValue = 0,        // LV baseline.
  kMovingAverage = 1,    // MA baseline, period 30.
  kLinearRegression = 2,
  kLasso = 3,            // alpha = 0.1.
  kSvr = 4,              // rbf, C=10, eps=0.1.
  kGradientBoosting = 5, // lr=0.1, 100 stumps, LAD.
};

inline constexpr int kNumAlgorithms = 6;

std::string_view AlgorithmToString(Algorithm a);

/// Inverse of AlgorithmToString; InvalidArgument for any other name.
StatusOr<Algorithm> AlgorithmFromString(std::string_view name);

/// Per-vehicle forecaster configuration: algorithm plus the methodology
/// knobs (lookback window, ACF feature selection, scaling).
struct ForecasterConfig {
  Algorithm algorithm = Algorithm::kSvr;
  WindowingConfig windowing;
  FeatureSelectionConfig selection;
  bool use_feature_selection = true;
  /// Standardize features before the regressor (required for sane SVR
  /// distances, harmless elsewhere).
  bool standardize = true;
  /// Clamp predictions to the physical range [0, 24] hours.
  bool clamp_predictions = true;
  /// Reuse windowing/ACF state across consecutive Train calls on the same
  /// dataset: a sliding training span advances a ring-buffer design matrix
  /// (SlidingWindowBuilder) and reads the training-span ACF from
  /// precomputed running sums (SlidingAcf) instead of rebuilding both from
  /// scratch each step. The windowed matrix is bit-identical to the naive
  /// build; the ACF agrees up to floating-point rounding (see SlidingAcf).
  /// Disable to force the naive full-rebuild path (the bitwise reference
  /// that incremental_training_test compares against). Not serialized by
  /// Save: it changes how training runs, not what a trained pipeline is.
  bool incremental_training = true;

  /// Compile shim for perfbench/walkforward.cc, which still reads this
  /// flag: warm start is retired (DESIGN.md section 14), and Train rejects
  /// enabled = true with InvalidArgument. Goes with the next
  /// benchmark-scoped change (ROADMAP item 6).
  struct {
    bool enabled = false;
  } warm_start;

  size_t ma_period = 30;  // Moving-average baseline period.
  /// LR on wide windowed designs needs Tikhonov stabilization (see
  /// LinearRegression::Options::ridge): with ~200 standardized columns and
  /// ~140 records, plain OLS interpolates and extrapolates wildly. This
  /// plays the role of scikit-learn's minimum-norm lstsq solution.
  double lr_ridge = 25.0;
  Lasso::Options lasso;
  Svr::Options svr;
  GradientBoosting::Options gb;
};

/// Builds an unfitted regressor for an ML algorithm with the paper's
/// hyper-parameters from `config`. InvalidArgument for baseline algorithms
/// (they are not trained models).
StatusOr<std::unique_ptr<Regressor>> MakeRegressor(
    const ForecasterConfig& config);

/// Always false: warm start is retired. Compile shim for
/// perfbench/walkforward.cc, removed with ForecasterConfig::warm_start by
/// the next benchmark-scoped change (ROADMAP item 6).
bool AlgorithmSupportsWarmStart(Algorithm algorithm);

/// One member of a pooled training set: a vehicle's dataset plus the
/// half-open target span its records are drawn from (same semantics as
/// VehicleForecaster::Train's train_begin/train_end).
struct PooledTrainingSpan {
  const VehicleDataset* dataset = nullptr;
  size_t train_begin = 0;
  size_t train_end = 0;
};

/// One vehicle's end-to-end forecasting pipeline:
/// windowing -> ACF lag selection -> standardization -> regressor.
/// Baselines (LV, MA) skip the pipeline and read the hours series directly.
class VehicleForecaster {
 public:
  explicit VehicleForecaster(ForecasterConfig config);

  /// Trains on records whose target rows are train_begin..train_end-1
  /// (half-open, indices into `ds`). Requirements: for ML algorithms,
  /// train_begin >= lookback_w and at least 2 records. For baselines this
  /// records the training span end and succeeds trivially.
  /// InvalidArgument when config().warm_start.enabled is set.
  Status Train(const VehicleDataset& ds, size_t train_begin,
               size_t train_end);

  /// Trains one *pooled* model on the stacked windowed records of several
  /// vehicles (the per-cluster / global models of the serving hierarchy).
  /// Lags are selected on the member-averaged training-span ACF, the
  /// scaler is fit on the stacked design matrix, and the result is a
  /// regular trained forecaster: PredictTarget scores any member (or
  /// cold-start) vehicle's dataset, Save/Load round-trips it like a
  /// per-vehicle model. Members are stacked in input order, so the result
  /// is deterministic in (members, config). Requirements: ML algorithm
  /// (baselines carry no pooled state), >= 1 member, per-member spans as
  /// in Train, >= 2 stacked records in total.
  static StatusOr<VehicleForecaster> TrainPooled(
      std::span<const PooledTrainingSpan> members,
      const ForecasterConfig& config);

  /// Predicts utilization hours of target row `target_index`
  /// (may equal ds.num_days() for the one-step-ahead forecast).
  /// FailedPrecondition before Train.
  StatusOr<double> PredictTarget(const VehicleDataset& ds,
                                 size_t target_index) const;

  const ForecasterConfig& config() const { return config_; }
  bool trained() const { return trained_; }

  /// Lags selected at the last Train (empty for baselines or when feature
  /// selection is off).
  const std::vector<size_t>& selected_lags() const { return selected_lags_; }

  /// Column indices (into the full window-column set) the model consumes;
  /// empty when feature selection is off.
  const std::vector<size_t>& selected_columns() const {
    return selected_columns_;
  }

  /// Fitted scaler (meaningful only when config().standardize).
  const StandardScaler& scaler() const { return scaler_; }

  /// Trained regressor, or nullptr before Train / for baselines.
  const Regressor* regressor() const { return model_.get(); }

  /// Approximate heap bytes this trained pipeline keeps resident (model
  /// weights, scaler state, column tables) -- the unit of the serving
  /// registry's byte-budgeted cache. Compact pipelines charge the whole
  /// bundle they keep alive.
  size_t ResidentBytes() const;

  /// Persists the trained pipeline (config, selected columns, scaler,
  /// model) as text, so a model trained centrally can be applied at the
  /// edge without retraining (`vupred train --save`, `predict --model`).
  /// Registries publish SaveCompact bundles instead. FailedPrecondition
  /// before Train; Unimplemented for baseline algorithms (they carry no
  /// state).
  Status Save(std::ostream& os) const;

  /// Restores a pipeline written by Save.
  static StatusOr<VehicleForecaster> Load(std::istream& is);

  /// Persists the trained pipeline as a compact binary bundle
  /// (ml/compact.h): fixed layout, CRC-framed, scored in place -- the
  /// format registries publish and serve. Same preconditions as Save. The loaded
  /// pipeline predicts bitwise what this one does (DESIGN.md section 15).
  StatusOr<std::string> SaveCompact() const;

  /// Restores a pipeline written by SaveCompact. The forecaster scores in
  /// place over `bytes` and keeps `owner` alive, so pass the heap buffer
  /// backing them. Error contract as DecodeCompactPipeline.
  static StatusOr<VehicleForecaster> LoadCompact(
      std::span<const uint8_t> bytes, std::shared_ptr<const void> owner);

  /// Deep copy of the persisted pipeline (config, selected lags and
  /// columns, scaler, fitted model), independent of this forecaster: Save
  /// and SaveCompact of the copy write the same bytes as of this one, even
  /// after this forecaster is retrained or destroyed. Training caches are
  /// not copied. Same preconditions and statuses as Save.
  StatusOr<VehicleForecaster> Snapshot() const;

  /// Reassembles a trained forecaster from already-validated parts (the
  /// compact decode path), with Load's structural validation: ML
  /// algorithm only, fitted model, selected columns within the window
  /// column set, fitted scaler iff config.standardize.
  static StatusOr<VehicleForecaster> FromParts(
      const ForecasterConfig& config, std::vector<size_t> selected_lags,
      std::vector<size_t> selected_columns, StandardScaler scaler,
      std::unique_ptr<Regressor> model);

 private:
  bool IsBaseline() const {
    return config_.algorithm == Algorithm::kLastValue ||
           config_.algorithm == Algorithm::kMovingAverage;
  }

  /// Save's preconditions: FailedPrecondition before Train, Unimplemented
  /// for baseline algorithms.
  Status CheckSavable() const;

  /// Advances (or rebuilds) the cached sliding-window builder so it covers
  /// targets train_begin..train_end-1 of `ds`.
  Status PrepareIncrementalWindow(const VehicleDataset& ds, size_t train_begin,
                                  size_t train_end);

  ForecasterConfig config_;
  bool trained_ = false;

  // ML pipeline state.
  std::unique_ptr<Regressor> model_;
  StandardScaler scaler_;
  std::vector<WindowColumn> all_columns_;
  std::vector<size_t> selected_lags_;
  std::vector<size_t> selected_columns_;

  // Incremental-training caches (config_.incremental_training). Valid only
  // for the dataset identified by incremental_ds_/incremental_days_; Train
  // resets them when it sees a different dataset. The identity key is the
  // dataset's address plus its day count, so a caller mutating a dataset
  // in place between Train calls must not reuse its address -- the
  // evaluation pipeline never does (datasets are immutable once built).
  std::optional<SlidingWindowBuilder> window_builder_;
  std::optional<SlidingAcf> acf_cache_;
  const void* incremental_ds_ = nullptr;
  size_t incremental_days_ = 0;
};

}  // namespace vup

#endif  // VUPRED_CORE_FORECASTER_H_
