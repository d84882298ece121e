#include "core/forecaster.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/string_util.h"
#include "ml/compact.h"
#include "ml/linear_regression.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vup {

std::string_view AlgorithmToString(Algorithm a) {
  switch (a) {
    case Algorithm::kLastValue:
      return "LV";
    case Algorithm::kMovingAverage:
      return "MA";
    case Algorithm::kLinearRegression:
      return "LR";
    case Algorithm::kLasso:
      return "Lasso";
    case Algorithm::kSvr:
      return "SVR";
    case Algorithm::kGradientBoosting:
      return "GB";
  }
  return "?";
}

StatusOr<Algorithm> AlgorithmFromString(std::string_view name) {
  for (int a = 0; a < kNumAlgorithms; ++a) {
    const auto algorithm = static_cast<Algorithm>(a);
    if (AlgorithmToString(algorithm) == name) return algorithm;
  }
  return Status::InvalidArgument("unknown algorithm: " + std::string(name));
}

StatusOr<std::unique_ptr<Regressor>> MakeRegressor(
    const ForecasterConfig& config) {
  switch (config.algorithm) {
    case Algorithm::kLinearRegression: {
      LinearRegression::Options lr;
      lr.ridge = config.lr_ridge;
      return std::unique_ptr<Regressor>(new LinearRegression(lr));
    }
    case Algorithm::kLasso:
      return std::unique_ptr<Regressor>(new Lasso(config.lasso));
    case Algorithm::kSvr:
      return std::unique_ptr<Regressor>(new Svr(config.svr));
    case Algorithm::kGradientBoosting:
      return std::unique_ptr<Regressor>(new GradientBoosting(config.gb));
    case Algorithm::kLastValue:
    case Algorithm::kMovingAverage:
      return Status::InvalidArgument(
          "baseline algorithms are not trained regressors");
  }
  return Status::Internal("unreachable algorithm");
}

VehicleForecaster::VehicleForecaster(ForecasterConfig config)
    : config_(std::move(config)) {}

Status VehicleForecaster::Train(const VehicleDataset& ds, size_t train_begin,
                                size_t train_end) {
  obs::TraceSpan fit_span("fit");
  trained_ = false;
  if (config_.warm_start.enabled) {
    return Status::InvalidArgument("warm start is retired");
  }
  if (train_begin >= train_end) {
    return Status::InvalidArgument("empty training span");
  }
  if (train_end > ds.num_days()) {
    return Status::OutOfRange("training span beyond dataset");
  }

  if (IsBaseline()) {
    trained_ = true;  // Baselines read the series at prediction time.
    return Status::OK();
  }

  if (train_begin < config_.windowing.lookback_w) {
    return Status::InvalidArgument(StrFormat(
        "train_begin %zu < lookback_w %zu", train_begin,
        config_.windowing.lookback_w));
  }
  if (train_end - train_begin < 2) {
    return Status::InvalidArgument("need at least 2 training records");
  }

  const bool incremental = config_.incremental_training;
  Matrix x;
  std::vector<double> y;
  if (incremental) {
    VUP_RETURN_IF_ERROR(PrepareIncrementalWindow(ds, train_begin, train_end));
    y = window_builder_->Targets();
  } else {
    StatusOr<WindowedDataset> windowed_or = [&] {
      obs::TraceSpan span("window");
      return BuildWindowedDataset(ds, config_.windowing, train_begin,
                                  train_end - 1);
    }();
    VUP_RETURN_IF_ERROR(windowed_or.status());
    WindowedDataset& windowed = windowed_or.value();
    all_columns_ = std::move(windowed.columns);
    x = std::move(windowed.x);
    y = std::move(windowed.y);
  }

  // Statistics-based feature selection on the training span of the hours
  // series (the days the lookback windows draw from).
  if (config_.use_feature_selection) {
    obs::TraceSpan span("select");
    const size_t w = config_.windowing.lookback_w;
    std::vector<size_t> lags;
    if (incremental) {
      if (!acf_cache_ || acf_cache_->max_lag() != w) {
        acf_cache_.emplace(std::span<const double>(ds.hours()), w);
      }
      lags = SelectLagsByAcf(*acf_cache_, train_begin - w, train_end,
                             config_.selection.top_k);
    } else {
      std::span<const double> hours(ds.hours());
      std::span<const double> train_hours =
          hours.subspan(train_begin - w, w + (train_end - train_begin));
      lags = SelectLagsByAcf(train_hours, w, config_.selection.top_k);
    }
    selected_columns_ = ColumnsForLags(all_columns_, lags);
    selected_lags_ = std::move(lags);
    x = incremental ? window_builder_->MaterializeColumns(selected_columns_)
                    : x.SelectColumns(selected_columns_);
  } else {
    selected_lags_.clear();
    selected_columns_.clear();
    if (incremental) {
      obs::TraceSpan span("window");
      x = window_builder_->MaterializeMatrix();
    }
  }

  if (config_.standardize) {
    obs::TraceSpan span("scale");
    VUP_ASSIGN_OR_RETURN(x, scaler_.FitTransform(std::move(x)));
  }

  VUP_ASSIGN_OR_RETURN(model_, MakeRegressor(config_));
  {
    obs::TraceSpan span("train");
    VUP_RETURN_IF_ERROR(model_->Fit(x, y));
  }
  trained_ = true;
  return Status::OK();
}

bool AlgorithmSupportsWarmStart(Algorithm) { return false; }

StatusOr<VehicleForecaster> VehicleForecaster::TrainPooled(
    std::span<const PooledTrainingSpan> members,
    const ForecasterConfig& config) {
  obs::TraceSpan fit_span("fit_pooled");
  if (members.empty()) {
    return Status::InvalidArgument("pooled training needs >= 1 member");
  }
  VehicleForecaster pooled(config);
  if (pooled.IsBaseline()) {
    return Status::InvalidArgument(
        "pooled training needs an ML algorithm, not a baseline");
  }
  const size_t w = config.windowing.lookback_w;

  // Per-member windowed views, validated with Train's requirements.
  std::vector<WindowedDataset> windowed;
  windowed.reserve(members.size());
  size_t total_records = 0;
  for (size_t m = 0; m < members.size(); ++m) {
    const PooledTrainingSpan& member = members[m];
    if (member.dataset == nullptr) {
      return Status::InvalidArgument(
          StrFormat("pooled member %zu carries no dataset", m));
    }
    if (member.train_begin >= member.train_end) {
      return Status::InvalidArgument(
          StrFormat("pooled member %zu has an empty training span", m));
    }
    if (member.train_end > member.dataset->num_days()) {
      return Status::OutOfRange(
          StrFormat("pooled member %zu trains beyond its dataset", m));
    }
    if (member.train_begin < w) {
      return Status::InvalidArgument(
          StrFormat("pooled member %zu: train_begin %zu < lookback_w %zu", m,
                    member.train_begin, w));
    }
    StatusOr<WindowedDataset> view = [&] {
      obs::TraceSpan span("window");
      return BuildWindowedDataset(*member.dataset, config.windowing,
                                  member.train_begin, member.train_end - 1);
    }();
    VUP_RETURN_IF_ERROR(view.status());
    total_records += view.value().num_records();
    windowed.push_back(std::move(view.value()));
  }
  if (total_records < 2) {
    return Status::InvalidArgument("need at least 2 pooled records");
  }
  pooled.all_columns_ = windowed.front().columns;

  // Member-averaged ACF feature selection: every member votes with its
  // training-span ACF; degenerate members (constant/short series) abstain.
  // When all abstain, fall back to the most recent K lags, exactly like
  // the per-vehicle selection.
  pooled.selected_lags_.clear();
  pooled.selected_columns_.clear();
  if (config.use_feature_selection) {
    obs::TraceSpan span("select");
    const size_t k = std::min(config.selection.top_k, w);
    std::vector<double> mean_acf(w + 1, 0.0);
    size_t votes = 0;
    for (const PooledTrainingSpan& member : members) {
      std::span<const double> hours(member.dataset->hours());
      std::span<const double> train_hours = hours.subspan(
          member.train_begin - w, w + (member.train_end - member.train_begin));
      StatusOr<std::vector<double>> acf = Autocorrelation(train_hours, w);
      if (!acf.ok()) continue;
      for (size_t l = 0; l <= w; ++l) mean_acf[l] += acf.value()[l];
      ++votes;
    }
    if (votes > 0) {
      for (double& v : mean_acf) v /= static_cast<double>(votes);
      pooled.selected_lags_ = TopKLagsByAcf(mean_acf, k);
    } else {
      for (size_t l = 1; l <= k; ++l) pooled.selected_lags_.push_back(l);
    }
    std::sort(pooled.selected_lags_.begin(), pooled.selected_lags_.end());
    pooled.selected_columns_ =
        ColumnsForLags(pooled.all_columns_, pooled.selected_lags_);
  }

  // Stack the (selected) member designs in input order.
  Matrix x;
  std::vector<double> y;
  y.reserve(total_records);
  {
    obs::TraceSpan span("window");
    for (WindowedDataset& view : windowed) {
      Matrix rows = config.use_feature_selection
                        ? view.x.SelectColumns(pooled.selected_columns_)
                        : std::move(view.x);
      for (size_t r = 0; r < rows.rows(); ++r) x.AppendRow(rows.Row(r));
      y.insert(y.end(), view.y.begin(), view.y.end());
    }
  }

  if (config.standardize) {
    obs::TraceSpan span("scale");
    VUP_ASSIGN_OR_RETURN(x, pooled.scaler_.FitTransform(std::move(x)));
  }
  VUP_ASSIGN_OR_RETURN(pooled.model_, MakeRegressor(config));
  {
    obs::TraceSpan span("train");
    VUP_RETURN_IF_ERROR(pooled.model_->Fit(x, y));
  }
  pooled.trained_ = true;
  return pooled;
}

Status VehicleForecaster::PrepareIncrementalWindow(const VehicleDataset& ds,
                                                   size_t train_begin,
                                                   size_t train_end) {
  obs::TraceSpan span("window");
  // Advance/rebuild totals are deterministic for a given evaluation
  // schedule; only span timings vary run to run.
  struct WindowCounters {
    obs::Counter* advances;
    obs::Counter* rebuilds;
  };
  static const WindowCounters counters = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return WindowCounters{
        registry.GetCounter(
            "vupred_window_incremental_advances_total",
            "Sliding training windows advanced in place (rows reused)."),
        registry.GetCounter(
            "vupred_window_incremental_rebuilds_total",
            "Sliding-window builder full (re)builds."),
    };
  }();

  if (incremental_ds_ != &ds || incremental_days_ != ds.num_days()) {
    window_builder_.reset();
    acf_cache_.reset();
    incremental_ds_ = &ds;
    incremental_days_ = ds.num_days();
  }

  const size_t count = train_end - train_begin;
  if (window_builder_ && window_builder_->num_records() == count &&
      train_begin >= window_builder_->first_target()) {
    VUP_RETURN_IF_ERROR(
        window_builder_->AdvanceTo(ds, train_begin, train_end - 1));
    counters.advances->Increment(1);
  } else {
    // First call, a growing span (expanding strategy), or a backward move:
    // fall back to a full build, identical in cost to the naive path.
    VUP_ASSIGN_OR_RETURN(SlidingWindowBuilder builder,
                         SlidingWindowBuilder::Create(ds, config_.windowing,
                                                      train_begin,
                                                      train_end - 1));
    window_builder_ = std::move(builder);
    counters.rebuilds->Increment(1);
  }
  all_columns_ = window_builder_->columns();
  return Status::OK();
}

StatusOr<double> VehicleForecaster::PredictTarget(const VehicleDataset& ds,
                                                  size_t target_index) const {
  if (!trained_) return Status::FailedPrecondition("forecaster not trained");

  double prediction = 0.0;
  if (IsBaseline()) {
    if (target_index == 0 || target_index > ds.num_days()) {
      return Status::InvalidArgument("baseline needs at least one past day");
    }
    std::span<const double> history(ds.hours().data(), target_index);
    if (config_.algorithm == Algorithm::kLastValue) {
      VUP_ASSIGN_OR_RETURN(prediction, LastValueBaseline().Predict(history));
    } else {
      VUP_ASSIGN_OR_RETURN(
          prediction,
          MovingAverageBaseline(config_.ma_period).Predict(history));
    }
  } else {
    VUP_ASSIGN_OR_RETURN(
        std::vector<double> row,
        BuildFeatureRowForTarget(ds, config_.windowing, target_index));
    if (config_.use_feature_selection) {
      std::vector<double> selected;
      selected.reserve(selected_columns_.size());
      for (size_t c : selected_columns_) selected.push_back(row[c]);
      row = std::move(selected);
    }
    if (config_.standardize) {
      VUP_ASSIGN_OR_RETURN(row, scaler_.TransformRow(row));
    }
    VUP_ASSIGN_OR_RETURN(prediction, model_->PredictOne(row));
  }

  if (config_.clamp_predictions) {
    prediction = std::clamp(prediction, 0.0, 24.0);
  }
  return prediction;
}

Status VehicleForecaster::CheckSavable() const {
  if (!trained_) {
    return Status::FailedPrecondition("cannot save an untrained forecaster");
  }
  if (IsBaseline()) {
    return Status::Unimplemented(
        "baseline forecasters carry no state to save");
  }
  return Status::OK();
}

Status VehicleForecaster::Save(std::ostream& os) const {
  VUP_ASSIGN_OR_RETURN(std::string bytes, SaveCompact());
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) return Status::DataLoss("stream write failed");
  return Status::OK();
}

StatusOr<VehicleForecaster> VehicleForecaster::Load(std::istream& is) {
  // Reads one byte past the cap at most, so an oversized stream costs
  // kMaxCompactBytes + 1 bytes and the decoder refuses its size.
  std::string bytes;
  while (is && bytes.size() <= kMaxCompactBytes) {
    const size_t have = bytes.size();
    const size_t want = std::min<size_t>(1 << 16, kMaxCompactBytes + 1 - have);
    bytes.resize(have + want);
    is.read(bytes.data() + have, static_cast<std::streamsize>(want));
    bytes.resize(have + static_cast<size_t>(is.gcount()));
  }
  if (is.bad()) return Status::DataLoss("stream read failed");
  return LoadCompact(std::move(bytes));
}

size_t VehicleForecaster::ResidentBytes() const {
  size_t bytes = sizeof(*this);
  if (model_ != nullptr) bytes += model_->ResidentBytes();
  bytes += (scaler_.means().capacity() + scaler_.scales().capacity()) *
           sizeof(double);
  bytes += all_columns_.capacity() * sizeof(WindowColumn);
  bytes += (selected_lags_.capacity() + selected_columns_.capacity()) *
           sizeof(size_t);
  return bytes;
}

StatusOr<VehicleForecaster> VehicleForecaster::FromParts(
    const ForecasterConfig& config, std::vector<size_t> selected_lags,
    std::vector<size_t> selected_columns, StandardScaler scaler,
    std::unique_ptr<Regressor> model) {
  VehicleForecaster forecaster(config);
  if (forecaster.IsBaseline()) {
    return Status::InvalidArgument(
        "baseline forecasters carry no model state");
  }
  if (model == nullptr || !model->fitted()) {
    return Status::InvalidArgument("FromParts needs a fitted model");
  }
  if (config.standardize && !scaler.fitted()) {
    return Status::InvalidArgument("standardize set but scaler unfitted");
  }
  forecaster.all_columns_ = MakeWindowColumns(config.windowing);
  for (size_t c : selected_columns) {
    if (c >= forecaster.all_columns_.size()) {
      return Status::InvalidArgument("selected column index out of range");
    }
  }
  forecaster.selected_lags_ = std::move(selected_lags);
  forecaster.selected_columns_ = std::move(selected_columns);
  forecaster.scaler_ = std::move(scaler);
  forecaster.model_ = std::move(model);
  forecaster.trained_ = true;
  return forecaster;
}

StatusOr<VehicleForecaster> VehicleForecaster::Snapshot() const {
  VUP_RETURN_IF_ERROR(CheckSavable());
  return FromParts(config_, selected_lags_, selected_columns_, scaler_,
                   model_->CloneFitted());
}

StatusOr<std::string> VehicleForecaster::SaveCompact() const {
  VUP_RETURN_IF_ERROR(CheckSavable());
  CompactPipelineHeader header;
  header.algorithm = static_cast<int>(config_.algorithm);
  header.lookback_w = static_cast<uint32_t>(config_.windowing.lookback_w);
  header.lag_engine_features =
      static_cast<uint32_t>(config_.windowing.lag_engine_features);
  header.top_k = static_cast<uint32_t>(config_.selection.top_k);
  header.use_feature_selection = config_.use_feature_selection;
  header.standardize = config_.standardize;
  header.clamp_predictions = config_.clamp_predictions;
  header.include_target_day_context =
      config_.windowing.include_target_day_context;
  header.include_lag_context = config_.windowing.include_lag_context;
  header.selected_lags.reserve(selected_lags_.size());
  for (size_t lag : selected_lags_) {
    header.selected_lags.push_back(static_cast<uint32_t>(lag));
  }
  header.selected_columns.reserve(selected_columns_.size());
  for (size_t col : selected_columns_) {
    header.selected_columns.push_back(static_cast<uint32_t>(col));
  }
  return EncodeCompactPipeline(
      header, config_.standardize ? &scaler_ : nullptr, *model_);
}

StatusOr<VehicleForecaster> VehicleForecaster::LoadCompact(
    std::span<const uint8_t> bytes, std::shared_ptr<const void> owner) {
  VUP_ASSIGN_OR_RETURN(DecodedCompactPipeline decoded,
                       DecodeCompactPipeline(bytes, std::move(owner)));
  ForecasterConfig config;
  // The decoder only emits the four ML algorithm codes, which are the
  // integer values of the Algorithm enum.
  config.algorithm = static_cast<Algorithm>(decoded.header.algorithm);
  config.windowing.lookback_w = decoded.header.lookback_w;
  config.windowing.lag_engine_features = decoded.header.lag_engine_features;
  config.windowing.include_target_day_context =
      decoded.header.include_target_day_context;
  config.windowing.include_lag_context = decoded.header.include_lag_context;
  config.selection.top_k = decoded.header.top_k;
  config.use_feature_selection = decoded.header.use_feature_selection;
  config.standardize = decoded.header.standardize;
  config.clamp_predictions = decoded.header.clamp_predictions;
  std::vector<size_t> lags(decoded.header.selected_lags.begin(),
                           decoded.header.selected_lags.end());
  std::vector<size_t> cols(decoded.header.selected_columns.begin(),
                           decoded.header.selected_columns.end());
  // Column-range validation against MakeWindowColumns happens in
  // FromParts; a compact bundle whose columns fall outside the window set
  // is rejected, not served.
  StatusOr<VehicleForecaster> forecaster =
      FromParts(config, std::move(lags), std::move(cols),
                std::move(decoded.scaler), std::move(decoded.model));
  if (!forecaster.ok() &&
      forecaster.status().code() == StatusCode::kInvalidArgument) {
    // Structural lies that pass the CRC are still corruption from the
    // serving path's point of view.
    return Status::DataLoss("compact bundle failed pipeline validation: " +
                            forecaster.status().message());
  }
  return forecaster;
}

StatusOr<VehicleForecaster> VehicleForecaster::LoadCompact(std::string bytes) {
  auto owner = std::make_shared<const std::string>(std::move(bytes));
  return LoadCompact(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(owner->data()),
                               owner->size()),
      owner);
}

}  // namespace vup
