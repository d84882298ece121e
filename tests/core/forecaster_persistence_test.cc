#include <cstring>
#include <sstream>
#include <streambuf>

#include <gtest/gtest.h>

#include "core/forecaster.h"
#include "ml/compact.h"

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

ForecasterConfig PersistenceConfig(Algorithm algorithm) {
  ForecasterConfig cfg;
  cfg.algorithm = algorithm;
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  cfg.gb.n_estimators = 30;
  return cfg;
}

class ForecasterPersistenceTest : public ::testing::TestWithParam<Algorithm> {
};

TEST_P(ForecasterPersistenceTest, SaveLoadPredictsIdentically) {
  VehicleDataset ds = WeeklyDataset(220);
  VehicleForecaster original(PersistenceConfig(GetParam()));
  ASSERT_TRUE(original.Train(ds, 20, 200).ok());

  StatusOr<std::string> bytes = original.SaveCompact();
  ASSERT_TRUE(bytes.ok()) << AlgorithmToString(GetParam());
  StatusOr<VehicleForecaster> loaded_or =
      VehicleForecaster::LoadCompact(std::move(bytes).value());
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const VehicleForecaster& loaded = loaded_or.value();
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.selected_lags(), original.selected_lags());
  EXPECT_EQ(loaded.selected_columns(), original.selected_columns());

  for (size_t t = 205; t <= ds.num_days(); t += 3) {
    const double want = original.PredictTarget(ds, t).value();
    const double got = loaded.PredictTarget(ds, t).value();
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << "target " << t << ": " << want << " vs " << got;
  }
}

TEST_P(ForecasterPersistenceTest, StreamSaveWritesTheCompactBytes) {
  VehicleDataset ds = WeeklyDataset(220);
  VehicleForecaster forecaster(PersistenceConfig(GetParam()));
  ASSERT_TRUE(forecaster.Train(ds, 20, 200).ok());
  const std::string compact = forecaster.SaveCompact().value();
  std::ostringstream os;
  ASSERT_TRUE(forecaster.Save(os).ok());
  EXPECT_EQ(os.str(), compact);

  std::istringstream is(os.str());
  StatusOr<VehicleForecaster> loaded = VehicleForecaster::Load(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const double want = forecaster.PredictTarget(ds, ds.num_days()).value();
  const double got = loaded.value().PredictTarget(ds, ds.num_days()).value();
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << want << " vs " << got;
}

TEST_P(ForecasterPersistenceTest, SnapshotSavesTheSameBytes) {
  VehicleDataset ds = WeeklyDataset(220);
  VehicleForecaster forecaster(PersistenceConfig(GetParam()));
  ASSERT_TRUE(forecaster.Train(ds, 20, 200).ok());
  const std::string compact = forecaster.SaveCompact().value();

  StatusOr<VehicleForecaster> snapshot = forecaster.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  // Retraining the source leaves the snapshot's bytes as they were.
  ASSERT_TRUE(forecaster.Train(ds, 40, 210).ok());
  EXPECT_EQ(snapshot.value().SaveCompact().value(), compact);
}

TEST_P(ForecasterPersistenceTest, LoadedForecasterSavesTheSameBytes) {
  VehicleDataset ds = WeeklyDataset(220);
  VehicleForecaster forecaster(PersistenceConfig(GetParam()));
  ASSERT_TRUE(forecaster.Train(ds, 20, 200).ok());
  const std::string compact = forecaster.SaveCompact().value();

  StatusOr<VehicleForecaster> loaded = VehicleForecaster::LoadCompact(compact);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  StatusOr<std::string> saved = loaded.value().SaveCompact();
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved.value(), compact);
  StatusOr<VehicleForecaster> snapshot = loaded.value().Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().SaveCompact().value(), compact);
  // A second generation of the round trip is the same bytes again.
  StatusOr<VehicleForecaster> reloaded =
      VehicleForecaster::LoadCompact(std::move(saved).value());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().SaveCompact().value(), compact);
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
  EXPECT_TRUE(forecaster.SaveCompact().status().IsFailedPrecondition());
  EXPECT_TRUE(forecaster.Save(os).IsFailedPrecondition());
  EXPECT_TRUE(os.str().empty());
  EXPECT_TRUE(forecaster.Snapshot().status().IsFailedPrecondition());
}

TEST(ForecasterPersistenceTest, BaselineRejected) {
  VehicleDataset ds = WeeklyDataset(100);
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLastValue;
  VehicleForecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(ds, 0, 90).ok());
  std::ostringstream os;
  EXPECT_TRUE(forecaster.SaveCompact().status().IsUnimplemented());
  EXPECT_TRUE(forecaster.Save(os).IsUnimplemented());
  EXPECT_TRUE(forecaster.Snapshot().status().IsUnimplemented());
}

TEST(ForecasterPersistenceTest, GarbageRejected) {
  // Too short for a compact header: DataLoss.
  for (const char* garbage : {"", "nonsense", "VUPC"}) {
    std::istringstream is(garbage);
    const Status status = VehicleForecaster::Load(is).status();
    EXPECT_TRUE(status.IsDataLoss()) << garbage << ": " << status.ToString();
  }
  // The retired text format is refused by its first bytes, not parsed.
  const std::string text =
      "vupred-forecaster v1\nalgorithm Lasso\nlookback_w 14\n"
      "include_target_day_context 1\ninclude_lag_context 1\n";
  std::istringstream is(text);
  const Status status = VehicleForecaster::Load(is).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(
      VehicleForecaster::LoadCompact(text).status().IsInvalidArgument());
}

/// An endless stream of one byte that counts what it hands out.
class EndlessBuf : public std::streambuf {
 public:
  size_t served() const { return served_; }

 protected:
  int_type underflow() override {
    setg(chunk_, chunk_, chunk_ + sizeof(chunk_));
    served_ += sizeof(chunk_);
    return traits_type::to_int_type(chunk_[0]);
  }

 private:
  char chunk_[4096] = {'V'};
  size_t served_ = 0;
};

TEST(ForecasterPersistenceTest, OversizedStreamIsReadOnlyPastTheCap) {
  EndlessBuf buf;
  std::istream is(&buf);
  const Status status = VehicleForecaster::Load(is).status();
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
  // One byte past the cap decides it; the buffer hands out whole chunks.
  EXPECT_GT(buf.served(), kMaxCompactBytes);
  EXPECT_LE(buf.served(), kMaxCompactBytes + 4096);
}

}  // namespace
}  // namespace vup
