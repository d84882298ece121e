#include "core/two_stage.h"

#include <algorithm>

#include "common/string_util.h"
#include "ml/metrics.h"
#include "stats/descriptive.h"

namespace vup {

TwoStageForecaster::TwoStageForecaster(TwoStageConfig config)
    : config_(std::move(config)) {}

Status TwoStageForecaster::Train(const VehicleDataset& ds, size_t train_begin,
                                 size_t train_end) {
  trained_ = false;
  degenerate_gate_ = false;
  has_regressor_ = false;
  const ForecasterConfig& fc = config_.regression;
  if (fc.algorithm == Algorithm::kLastValue ||
      fc.algorithm == Algorithm::kMovingAverage) {
    return Status::InvalidArgument(
        "two-stage regression stage must be an ML algorithm");
  }
  if (train_begin >= train_end) {
    return Status::InvalidArgument("empty training span");
  }
  if (train_end > ds.num_days()) {
    return Status::OutOfRange("training span beyond dataset");
  }
  if (train_begin < fc.windowing.lookback_w) {
    return Status::InvalidArgument("train_begin precedes lookback window");
  }
  if (train_end - train_begin < 4) {
    return Status::InvalidArgument("need at least 4 training records");
  }

  VUP_ASSIGN_OR_RETURN(
      WindowedDataset windowed,
      BuildWindowedDataset(ds, fc.windowing, train_begin, train_end - 1));
  all_columns_ = windowed.columns;

  Matrix x = std::move(windowed.x);
  selected_columns_.clear();
  if (fc.use_feature_selection) {
    std::span<const double> hours(ds.hours());
    std::span<const double> train_hours = hours.subspan(
        train_begin - fc.windowing.lookback_w,
        fc.windowing.lookback_w + (train_end - train_begin));
    std::vector<size_t> lags = SelectLagsByAcf(
        train_hours, fc.windowing.lookback_w, fc.selection.top_k);
    selected_columns_ = ColumnsForLags(all_columns_, lags);
    x = x.SelectColumns(selected_columns_);
  }
  VUP_ASSIGN_OR_RETURN(x, scaler_.FitTransform(std::move(x)));

  // Stage 1: working/idle labels.
  std::vector<int> labels(windowed.y.size());
  int positives = 0;
  for (size_t i = 0; i < windowed.y.size(); ++i) {
    labels[i] = windowed.y[i] >= config_.working_threshold_hours ? 1 : 0;
    positives += labels[i];
  }
  if (positives == 0 || positives == static_cast<int>(labels.size())) {
    degenerate_gate_ = true;
    constant_class_ = positives == 0 ? 0 : 1;
  } else {
    gate_ = LogisticRegression(config_.classifier);
    VUP_RETURN_IF_ERROR(gate_.Fit(x, labels));
  }

  // Stage 2: hours regression on working-day records only.
  std::vector<size_t> working_rows;
  std::vector<double> working_hours;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == 1) {
      working_rows.push_back(i);
      working_hours.push_back(windowed.y[i]);
    }
  }
  fallback_hours_ = working_hours.empty() ? 0.0 : Median(working_hours);
  if (working_rows.size() >= 2) {
    Matrix x_working = x.SelectRows(working_rows);
    VUP_ASSIGN_OR_RETURN(regressor_, MakeRegressor(fc));
    Status fitted = regressor_->Fit(x_working, working_hours);
    if (fitted.ok()) {
      has_regressor_ = true;
    }
    // A failed stage-2 fit (e.g. too few working days for the solver)
    // falls back to the median working-day hours.
  }

  trained_ = true;
  return Status::OK();
}

StatusOr<std::vector<double>> TwoStageForecaster::PreparedRow(
    const VehicleDataset& ds, size_t target_index) const {
  VUP_ASSIGN_OR_RETURN(
      std::vector<double> row,
      BuildFeatureRowForTarget(ds, config_.regression.windowing,
                               target_index));
  if (config_.regression.use_feature_selection) {
    std::vector<double> selected;
    selected.reserve(selected_columns_.size());
    for (size_t c : selected_columns_) selected.push_back(row[c]);
    row = std::move(selected);
  }
  return scaler_.TransformRow(row);
}

StatusOr<double> TwoStageForecaster::PredictWorkingProbability(
    const VehicleDataset& ds, size_t target_index) const {
  if (!trained_) return Status::FailedPrecondition("forecaster not trained");
  if (degenerate_gate_) return constant_class_ == 1 ? 1.0 : 0.0;
  VUP_ASSIGN_OR_RETURN(std::vector<double> row,
                       PreparedRow(ds, target_index));
  return gate_.PredictProbability(row);
}

StatusOr<double> TwoStageForecaster::PredictTarget(
    const VehicleDataset& ds, size_t target_index) const {
  if (!trained_) return Status::FailedPrecondition("forecaster not trained");
  VUP_ASSIGN_OR_RETURN(double p_working,
                       PredictWorkingProbability(ds, target_index));

  double hours = fallback_hours_;
  if (has_regressor_) {
    VUP_ASSIGN_OR_RETURN(std::vector<double> row,
                         PreparedRow(ds, target_index));
    VUP_ASSIGN_OR_RETURN(hours, regressor_->PredictOne(row));
  }
  hours = std::clamp(hours, 0.0, 24.0);

  if (config_.soft_gate) {
    return p_working * hours;
  }
  return p_working >= config_.decision_threshold ? hours : 0.0;
}

StatusOr<VehicleEvaluation> EvaluateVehicleTwoStage(
    const VehicleDataset& ds, const EvaluationConfig& eval_config,
    const TwoStageConfig& two_stage_config) {
  if (eval_config.eval_days == 0) {
    return Status::InvalidArgument("eval_days must be >= 1");
  }
  if (eval_config.retrain_every == 0) {
    return Status::InvalidArgument("retrain_every must be >= 1");
  }
  const size_t n = ds.num_days();
  const size_t w = two_stage_config.regression.windowing.lookback_w;
  const size_t min_train_records = 8;
  const size_t min_target = w + min_train_records;
  if (n < min_target + 1) {
    return Status::InvalidArgument(StrFormat(
        "series of %zu rows too short for lookback %zu + training", n, w));
  }
  const size_t first_target = std::max(min_target, n - eval_config.eval_days);

  TwoStageForecaster forecaster(two_stage_config);
  VehicleEvaluation out;
  size_t since_retrain = eval_config.retrain_every;
  for (size_t t = first_target; t < n; ++t) {
    if (since_retrain >= eval_config.retrain_every) {
      size_t train_end = t;
      size_t train_begin =
          eval_config.strategy == WindowStrategy::kExpanding
              ? w
              : std::max(w, train_end - std::min(train_end - w,
                                                 eval_config.train_window));
      VUP_RETURN_IF_ERROR(forecaster.Train(ds, train_begin, train_end));
      since_retrain = 0;
    }
    ++since_retrain;
    VUP_ASSIGN_OR_RETURN(double pred, forecaster.PredictTarget(ds, t));
    out.dates.push_back(ds.dates()[t]);
    out.actuals.push_back(ds.hours()[t]);
    out.predictions.push_back(pred);
  }
  out.num_predictions = out.predictions.size();
  out.pe = PercentageError(out.predictions, out.actuals);
  out.mae = MeanAbsoluteError(out.predictions, out.actuals);
  return out;
}

}  // namespace vup
