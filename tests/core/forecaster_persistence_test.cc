#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "core/forecaster.h"

namespace vup {
namespace {

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

VehicleDataset WeeklyDataset(int n) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    int wd = static_cast<int>(r.date.weekday());
    r.hours = wd < 5 ? 4.0 + wd + 0.05 * (i % 3) : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = 30;
  return VehicleDataset::Build(info, recs, Italy()).value();
}

class ForecasterPersistenceTest : public ::testing::TestWithParam<Algorithm> {
};

TEST_P(ForecasterPersistenceTest, SaveLoadPredictsIdentically) {
  VehicleDataset ds = WeeklyDataset(220);
  ForecasterConfig cfg;
  cfg.algorithm = GetParam();
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  cfg.gb.n_estimators = 30;
  VehicleForecaster original(cfg);
  ASSERT_TRUE(original.Train(ds, 20, 200).ok());

  std::ostringstream os;
  ASSERT_TRUE(original.Save(os).ok())
      << AlgorithmToString(GetParam());
  std::istringstream is(os.str());
  StatusOr<VehicleForecaster> loaded_or = VehicleForecaster::Load(is);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const VehicleForecaster& loaded = loaded_or.value();
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.selected_lags(), original.selected_lags());

  for (size_t t = 205; t <= ds.num_days(); t += 3) {
    EXPECT_DOUBLE_EQ(loaded.PredictTarget(ds, t).value(),
                     original.PredictTarget(ds, t).value())
        << "target " << t;
  }
}

/// Re-renders every numeric token of a saved bundle with printf("%.17g")
/// of the value it parses to, keeping all other bytes as they are. A
/// bundle equals its rendering exactly when every number in it is the
/// %.17g text of its double. `doubles` counts the non-integer tokens.
std::string PrintfRendering(const std::string& text, size_t* doubles) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t end = std::min(text.find_first_of(" \n", pos), text.size());
    const std::string token = text.substr(pos, end - pos);
    char* parsed_end = nullptr;
    const double value = std::strtod(token.c_str(), &parsed_end);
    if (!token.empty() && *parsed_end == '\0') {
      char buf[64];
      out.append(buf, static_cast<size_t>(std::snprintf(
                          buf, sizeof(buf), "%.17g", value)));
      if (token.find_first_of(".e") != std::string::npos) ++*doubles;
    } else {
      out += token;
    }
    if (end < text.size()) out += text[end];
    pos = end + 1;
  }
  return out;
}

TEST_P(ForecasterPersistenceTest, SavedBytesMatchPrintfReference) {
  VehicleDataset ds = WeeklyDataset(220);
  ForecasterConfig cfg;
  cfg.algorithm = GetParam();
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  cfg.gb.n_estimators = 30;
  VehicleForecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(ds, 20, 200).ok());
  std::ostringstream os;
  ASSERT_TRUE(forecaster.Save(os).ok());
  size_t doubles = 0;
  EXPECT_EQ(os.str(), PrintfRendering(os.str(), &doubles));
  EXPECT_GE(doubles, 10u) << "too few doubles for a meaningful check";
}

TEST_P(ForecasterPersistenceTest, SnapshotSavesTheSameBytes) {
  VehicleDataset ds = WeeklyDataset(220);
  ForecasterConfig cfg;
  cfg.algorithm = GetParam();
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  cfg.gb.n_estimators = 30;
  VehicleForecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(ds, 20, 200).ok());
  std::ostringstream text;
  ASSERT_TRUE(forecaster.Save(text).ok());
  const std::string compact = forecaster.SaveCompact().value();

  StatusOr<VehicleForecaster> snapshot = forecaster.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  // Retraining the source leaves the snapshot's bytes as they were.
  ASSERT_TRUE(forecaster.Train(ds, 40, 210).ok());
  std::ostringstream copied;
  ASSERT_TRUE(snapshot.value().Save(copied).ok());
  EXPECT_EQ(copied.str(), text.str());
  EXPECT_EQ(snapshot.value().SaveCompact().value(), compact);
}

INSTANTIATE_TEST_SUITE_P(
    MlAlgorithms, ForecasterPersistenceTest,
    ::testing::Values(Algorithm::kLinearRegression, Algorithm::kLasso,
                      Algorithm::kSvr, Algorithm::kGradientBoosting),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(AlgorithmToString(info.param));
    });

TEST(ForecasterPersistenceTest, UntrainedRejected) {
  VehicleForecaster forecaster(ForecasterConfig{});
  std::ostringstream os;
  EXPECT_TRUE(forecaster.Save(os).IsFailedPrecondition());
  EXPECT_TRUE(forecaster.Snapshot().status().IsFailedPrecondition());
}

TEST(ForecasterPersistenceTest, BaselineRejected) {
  VehicleDataset ds = WeeklyDataset(100);
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLastValue;
  VehicleForecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(ds, 0, 90).ok());
  std::ostringstream os;
  EXPECT_TRUE(forecaster.Save(os).IsUnimplemented());
  EXPECT_TRUE(forecaster.Snapshot().status().IsUnimplemented());
}

TEST(ForecasterPersistenceTest, GarbageRejected) {
  for (const char* garbage :
       {"", "nonsense", "vupred-forecaster v1\nalgorithm Alien\n",
        "vupred-forecaster v1\nalgorithm SVR\nlookback_w 14\n"}) {
    std::istringstream is(garbage);
    EXPECT_FALSE(VehicleForecaster::Load(is).ok()) << garbage;
  }
}

TEST(ForecasterPersistenceTest, CorruptColumnIndexRejected) {
  VehicleDataset ds = WeeklyDataset(200);
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLasso;
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  VehicleForecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(ds, 20, 190).ok());
  std::ostringstream os;
  ASSERT_TRUE(forecaster.Save(os).ok());
  // Tamper: blow up a selected column index far beyond the layout.
  std::string text = os.str();
  size_t pos = text.find("selected_columns");
  ASSERT_NE(pos, std::string::npos);
  size_t line_end = text.find('\n', pos);
  std::string line = text.substr(pos, line_end - pos);
  // Replace the last index with 99999.
  size_t last_space = line.rfind(' ');
  std::string tampered = text.substr(0, pos) +
                         line.substr(0, last_space) + " 99999" +
                         text.substr(line_end);
  std::istringstream is(tampered);
  EXPECT_FALSE(VehicleForecaster::Load(is).ok());
}

}  // namespace
}  // namespace vup
