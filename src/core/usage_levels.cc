#include "core/usage_levels.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/feature_selection.h"
#include "core/windowing.h"

namespace vup {

std::string_view UsageLevelToString(UsageLevel level) {
  switch (level) {
    case UsageLevel::kIdle:
      return "Idle";
    case UsageLevel::kShort:
      return "Short";
    case UsageLevel::kMedium:
      return "Medium";
    case UsageLevel::kLong:
      return "Long";
  }
  return "?";
}

UsageLevel LevelForHours(double hours) {
  if (hours < 1.0) return UsageLevel::kIdle;
  if (hours < 3.0) return UsageLevel::kShort;
  if (hours < 6.0) return UsageLevel::kMedium;
  return UsageLevel::kLong;
}

int LevelConfusionMatrix::total() const {
  int sum = 0;
  for (const auto& row : counts) {
    for (int v : row) sum += v;
  }
  return sum;
}

double LevelConfusionMatrix::Accuracy() const {
  int n = total();
  if (n == 0) return 0.0;
  int diag = 0;
  for (int i = 0; i < kNumUsageLevels; ++i) {
    diag += counts[static_cast<size_t>(i)][static_cast<size_t>(i)];
  }
  return static_cast<double>(diag) / n;
}

double LevelConfusionMatrix::WithinOneAccuracy() const {
  int n = total();
  if (n == 0) return 0.0;
  int near = 0;
  for (int i = 0; i < kNumUsageLevels; ++i) {
    for (int j = 0; j < kNumUsageLevels; ++j) {
      if (std::abs(i - j) <= 1) {
        near += counts[static_cast<size_t>(i)][static_cast<size_t>(j)];
      }
    }
  }
  return static_cast<double>(near) / n;
}

std::string LevelConfusionMatrix::ToString() const {
  std::string out = StrFormat("%-8s", "true\\pred");
  for (int j = 0; j < kNumUsageLevels; ++j) {
    out += StrFormat(" %7s",
                     std::string(UsageLevelToString(
                                     static_cast<UsageLevel>(j)))
                         .c_str());
  }
  out += "\n";
  for (int i = 0; i < kNumUsageLevels; ++i) {
    out += StrFormat("%-8s",
                     std::string(UsageLevelToString(
                                     static_cast<UsageLevel>(i)))
                         .c_str());
    for (int j = 0; j < kNumUsageLevels; ++j) {
      out += StrFormat(" %7d",
                       counts[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    }
    out += "\n";
  }
  out += StrFormat("accuracy=%.3f within-one=%.3f n=%d\n", Accuracy(),
                   WithinOneAccuracy(), total());
  return out;
}

UsageLevelClassifier::UsageLevelClassifier(Options options)
    : options_(std::move(options)) {}

Status UsageLevelClassifier::Train(const VehicleDataset& ds,
                                   size_t train_begin, size_t train_end) {
  trained_ = false;
  const ForecasterConfig& fc = options_.pipeline;
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

  const size_t n = windowed.y.size();
  for (int level = 0; level < kNumUsageLevels; ++level) {
    std::vector<int> labels(n);
    int positives = 0;
    for (size_t i = 0; i < n; ++i) {
      labels[i] =
          LevelForHours(windowed.y[i]) == static_cast<UsageLevel>(level) ? 1
                                                                         : 0;
      positives += labels[i];
    }
    PerLevel& slot = models_[static_cast<size_t>(level)];
    slot.prior = static_cast<double>(positives) / static_cast<double>(n);
    if (positives == 0 || positives == static_cast<int>(n)) {
      slot.usable = false;  // Constant class: score by prior.
      continue;
    }
    slot.model = LogisticRegression(options_.logistic);
    Status fitted = slot.model.Fit(x, labels);
    slot.usable = fitted.ok();
  }
  trained_ = true;
  return Status::OK();
}

StatusOr<std::array<double, kNumUsageLevels>>
UsageLevelClassifier::PredictScores(const VehicleDataset& ds,
                                    size_t target_index) const {
  if (!trained_) return Status::FailedPrecondition("classifier not trained");
  VUP_ASSIGN_OR_RETURN(
      std::vector<double> row,
      BuildFeatureRowForTarget(ds, options_.pipeline.windowing,
                               target_index));
  if (options_.pipeline.use_feature_selection) {
    std::vector<double> selected;
    selected.reserve(selected_columns_.size());
    for (size_t c : selected_columns_) selected.push_back(row[c]);
    row = std::move(selected);
  }
  VUP_ASSIGN_OR_RETURN(row, scaler_.TransformRow(row));

  std::array<double, kNumUsageLevels> scores{};
  for (int level = 0; level < kNumUsageLevels; ++level) {
    const PerLevel& slot = models_[static_cast<size_t>(level)];
    if (slot.usable) {
      VUP_ASSIGN_OR_RETURN(scores[static_cast<size_t>(level)],
                           slot.model.PredictProbability(row));
    } else {
      scores[static_cast<size_t>(level)] = slot.prior;
    }
  }
  return scores;
}

StatusOr<UsageLevel> UsageLevelClassifier::PredictTarget(
    const VehicleDataset& ds, size_t target_index) const {
  VUP_ASSIGN_OR_RETURN(auto scores, PredictScores(ds, target_index));
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return static_cast<UsageLevel>(best);
}

StatusOr<LevelConfusionMatrix> EvaluateUsageLevels(
    const VehicleDataset& ds, const EvaluationConfig& eval_config,
    const UsageLevelClassifier::Options& options) {
  if (eval_config.eval_days == 0 || eval_config.retrain_every == 0) {
    return Status::InvalidArgument("eval_days/retrain_every must be >= 1");
  }
  const size_t n = ds.num_days();
  const size_t w = options.pipeline.windowing.lookback_w;
  const size_t min_target = w + 8;
  if (n < min_target + 1) {
    return Status::InvalidArgument("series too short");
  }
  const size_t first_target = std::max(min_target, n - eval_config.eval_days);

  UsageLevelClassifier classifier(options);
  LevelConfusionMatrix confusion;
  size_t since_retrain = eval_config.retrain_every;
  for (size_t t = first_target; t < n; ++t) {
    if (since_retrain >= eval_config.retrain_every) {
      size_t train_end = t;
      size_t train_begin =
          eval_config.strategy == WindowStrategy::kExpanding
              ? w
              : std::max(w, train_end - std::min(train_end - w,
                                                 eval_config.train_window));
      VUP_RETURN_IF_ERROR(classifier.Train(ds, train_begin, train_end));
      since_retrain = 0;
    }
    ++since_retrain;
    VUP_ASSIGN_OR_RETURN(UsageLevel predicted,
                         classifier.PredictTarget(ds, t));
    UsageLevel actual = LevelForHours(ds.hours()[t]);
    confusion.counts[static_cast<size_t>(actual)]
                    [static_cast<size_t>(predicted)]++;
  }
  return confusion;
}

}  // namespace vup
