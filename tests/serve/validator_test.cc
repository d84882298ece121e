#include "serve/validator.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/forecaster.h"
#include "ml/metrics.h"
#include "serve/manifest.h"
#include "serve/model_registry.h"
#include "testing/registry.h"

namespace vup::serve {
namespace {

namespace fs = std::filesystem;

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

VehicleDataset MakeDataset(int64_t level_key, int n = 220) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    int wd = static_cast<int>(r.date.weekday());
    double level = 2.0 + static_cast<double>(level_key % 7);
    r.hours = wd < 5 ? level + wd + 0.05 * (i % 3) : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = level_key;
  return VehicleDataset::Build(info, recs, Italy()).value();
}

VehicleForecaster TrainForecaster(const VehicleDataset& ds) {
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLasso;
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  VehicleForecaster forecaster(cfg);
  EXPECT_TRUE(forecaster.Train(ds, 20, 200).ok());
  return forecaster;
}

class ValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/vup_validator_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    staged_ = root_ + "/staged";
    live_ = root_ + "/live";
    fs::create_directories(staged_);
    fs::create_directories(live_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void WriteBundle(const std::string& dir, int64_t id,
                   const VehicleForecaster& forecaster) {
    StatusOr<std::string> bytes = forecaster.SaveCompact();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    std::ofstream out(dir + "/" + ModelRegistry::BundleFileName(id),
                      std::ios::trunc | std::ios::binary);
    out << bytes.value();
  }

  /// Seals `dir` the way Finalize does: a MANIFEST of every file in it.
  void Seal(const std::string& dir) {
    StatusOr<GenerationManifest> manifest =
        GenerationManifest::BuildFromDirectory(dir, {});
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    ASSERT_TRUE(WriteManifestFile(dir, manifest.value()).ok());
  }

  std::string root_;
  std::string staged_;
  std::string live_;
};

TEST_F(ValidatorTest, HealthyGenerationPassesWithHoldoutComparison) {
  const VehicleDataset ds1 = MakeDataset(1);
  const VehicleDataset ds2 = MakeDataset(2);
  WriteBundle(staged_, 1, TrainForecaster(ds1));
  WriteBundle(staged_, 2, TrainForecaster(ds2));
  WriteBundle(live_, 1, TrainForecaster(ds1));
  WriteBundle(live_, 2, TrainForecaster(ds2));
  Seal(staged_);
  Seal(live_);
  std::map<int64_t, const VehicleDataset*> probes{{1, &ds1}, {2, &ds2}};

  StatusOr<ValidationReport> report =
      ValidateGeneration(staged_, live_, probes);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok()) << report.value().Summary();
  EXPECT_EQ(report.value().models_checked, 2u);
  EXPECT_EQ(report.value().deserialize_failures, 0u);
  EXPECT_EQ(report.value().probe_failures, 0u);
  EXPECT_EQ(report.value().nonfinite_outputs, 0u);
  EXPECT_EQ(report.value().bound_breaches, 0u);
  EXPECT_GT(report.value().holdout_points, 0u);
  EXPECT_FALSE(report.value().pe_guardrail_breached);
  EXPECT_TRUE(report.value().failures.empty());
}

TEST_F(ValidatorTest, NoLiveGenerationSkipsTheHoldoutGuardrail) {
  const VehicleDataset ds = MakeDataset(1);
  WriteBundle(staged_, 1, TrainForecaster(ds));
  Seal(staged_);
  std::map<int64_t, const VehicleDataset*> probes{{1, &ds}};

  StatusOr<ValidationReport> report = ValidateGeneration(staged_, "", probes);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok());
  EXPECT_EQ(report.value().holdout_points, 0u);
  EXPECT_FALSE(report.value().pe_guardrail_breached);
}

TEST_F(ValidatorTest, CorruptBundleIsADeserializeFailure) {
  const VehicleDataset ds = MakeDataset(1);
  WriteBundle(staged_, 1, TrainForecaster(ds));
  WriteBundle(staged_, 2, TrainForecaster(ds));
  Seal(staged_);
  // Vehicle 2's listed bundle is overwritten after the seal.
  std::ofstream out(staged_ + "/" + ModelRegistry::BundleFileName(2),
                    std::ios::trunc);
  out << "vupred-forecaster v1\nalgorithm Alien\n";
  out.close();
  std::map<int64_t, const VehicleDataset*> probes{{1, &ds}};

  StatusOr<ValidationReport> report = ValidateGeneration(staged_, "", probes);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok());
  EXPECT_EQ(report.value().models_checked, 2u);
  EXPECT_EQ(report.value().deserialize_failures, 1u);
  ASSERT_EQ(report.value().failures.size(), 1u);
  EXPECT_NE(report.value().failures[0].find("vehicle_2"), std::string::npos);
}

TEST_F(ValidatorTest, ProbeBoundBreachFailsTheGate) {
  const VehicleDataset ds = MakeDataset(5);
  WriteBundle(staged_, 5, TrainForecaster(ds));
  Seal(staged_);
  std::map<int64_t, const VehicleDataset*> probes{{5, &ds}};

  // A bound far tighter than any real utilization forces every probe over
  // it: the gate must count each breach and fail.
  ValidationOptions options;
  options.max_abs_hours = 0.001;
  StatusOr<ValidationReport> report =
      ValidateGeneration(staged_, "", probes, options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok());
  EXPECT_GT(report.value().bound_breaches, 0u);
}

TEST_F(ValidatorTest, HoldoutPeGuardrailCatchesARegressedFleet) {
  // Live fleet trained on each vehicle's own (smooth, weekly) data; the
  // staged fleet was trained on a violently alternating series, so its
  // lag weights are anti-persistent and its holdout PE on the real data
  // regresses far past the allowed ratio.
  auto alternating = [](int64_t key) {
    std::vector<DailyUsageRecord> recs;
    for (int i = 0; i < 220; ++i) {
      DailyUsageRecord r;
      r.date = D(i);
      r.hours = i % 2 == 0 ? 0.5 : 20.0;
      r.avg_engine_load_pct = 50;
      r.fuel_used_l = r.hours * 12;
      recs.push_back(r);
    }
    VehicleInfo info;
    info.vehicle_id = key;
    return VehicleDataset::Build(info, recs, Italy()).value();
  };
  const VehicleDataset ds1 = MakeDataset(1);
  const VehicleDataset ds2 = MakeDataset(2);
  WriteBundle(live_, 1, TrainForecaster(ds1));
  WriteBundle(live_, 2, TrainForecaster(ds2));
  WriteBundle(staged_, 1, TrainForecaster(alternating(1)));
  WriteBundle(staged_, 2, TrainForecaster(alternating(2)));
  Seal(staged_);
  Seal(live_);
  std::map<int64_t, const VehicleDataset*> probes{{1, &ds1}, {2, &ds2}};

  ValidationOptions options;
  options.max_abs_hours = 48.0;
  options.max_pe_regression_ratio = 1.25;
  StatusOr<ValidationReport> report =
      ValidateGeneration(staged_, live_, probes, options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().holdout_points, 0u);
  EXPECT_GT(report.value().staged_pe, report.value().live_pe);
  EXPECT_TRUE(report.value().pe_guardrail_breached)
      << report.value().Summary();
  EXPECT_FALSE(report.value().ok());
}

TEST_F(ValidatorTest, PooledBundlesProbeAgainstAnyMemberDataset) {
  // A pooled (negative reserved id) bundle has no dataset of its own; the
  // validator probes it with the first probe dataset on offer.
  const VehicleDataset ds = MakeDataset(1);
  WriteBundle(staged_, -1000, TrainForecaster(ds));
  Seal(staged_);
  std::map<int64_t, const VehicleDataset*> probes{{1, &ds}};

  StatusOr<ValidationReport> report = ValidateGeneration(staged_, "", probes);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok()) << report.value().Summary();
  EXPECT_EQ(report.value().models_checked, 1u);
}

TEST_F(ValidatorTest, OnlyListedBundlesAreChecked) {
  const VehicleDataset ds = MakeDataset(1);
  WriteBundle(staged_, 1, TrainForecaster(ds));
  Seal(staged_);
  // A bundle dropped in after the seal is no part of the generation.
  WriteBundle(staged_, 2, TrainForecaster(ds));
  std::map<int64_t, const VehicleDataset*> probes{{1, &ds}, {2, &ds}};

  StatusOr<ValidationReport> report = ValidateGeneration(staged_, "", probes);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok()) << report.value().Summary();
  EXPECT_EQ(report.value().models_checked, 1u);
}

TEST_F(ValidatorTest, UnsealedGenerationCannotBeValidated) {
  const VehicleDataset ds = MakeDataset(1);
  WriteBundle(staged_, 1, TrainForecaster(ds));
  WriteBundle(live_, 1, TrainForecaster(ds));
  std::map<int64_t, const VehicleDataset*> probes{{1, &ds}};
  EXPECT_TRUE(
      ValidateGeneration(staged_, "", probes).status().IsNotFound());
  Seal(staged_);
  EXPECT_TRUE(
      ValidateGeneration(staged_, live_, probes).status().IsNotFound());
}

// A valid bundle copied over another vehicle's of the same size, in both
// generations: the staged copy is a deserialize failure, and the live one
// is left out of the holdout, as the registry quarantines it. Live PE is
// that of the models the registry serves.
TEST_F(ValidatorTest, SameSizeSwapIsCaughtOnBothSides) {
  const VehicleDataset ds1 = MakeDataset(1);
  const VehicleDataset ds2 = MakeDataset(2);
  const VehicleForecaster live1 = TrainForecaster(ds1);
  const VehicleForecaster live2 = TrainForecaster(ds2);
  StatusOr<ModelRegistry> live_registry =
      ModelRegistry::Open({root_ + "/live_registry", 4});
  ASSERT_TRUE(live_registry.ok()) << live_registry.status().ToString();
  ModelRegistry& registry = live_registry.value();
  ASSERT_TRUE(PublishFleet(registry, {{1, &live1}, {2, &live2}}).ok());
  const std::string live_dir = registry.directory() + "/gen_000001";

  const VehicleForecaster staged1 = TrainForecaster(MakeDataset(3));
  const VehicleForecaster staged2 = TrainForecaster(MakeDataset(4));
  WriteBundle(staged_, 1, staged1);
  WriteBundle(staged_, 2, staged2);
  Seal(staged_);

  for (const std::string& dir : {live_dir, staged_}) {
    const std::string one = dir + "/" + ModelRegistry::BundleFileName(1);
    const std::string two = dir + "/" + ModelRegistry::BundleFileName(2);
    ASSERT_EQ(fs::file_size(one), fs::file_size(two)) << dir;
    fs::copy_file(one, two, fs::copy_options::overwrite_existing);
  }
  std::map<int64_t, const VehicleDataset*> probes{{1, &ds1}, {2, &ds2}};
  ValidationOptions options;
  options.max_pe_regression_ratio = 1e6;  // The PEs are the point here.
  StatusOr<ValidationReport> report =
      ValidateGeneration(staged_, live_dir, probes, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().models_checked, 2u);
  EXPECT_EQ(report.value().deserialize_failures, 1u);
  ASSERT_EQ(report.value().failures.size(), 1u);
  EXPECT_NE(report.value().failures[0].find("vehicle_2"), std::string::npos);

  // The registry serves vehicle 1 and quarantines vehicle 2: the holdout
  // covers vehicle 1 alone, scored by the model the registry serves.
  StatusOr<std::shared_ptr<const VehicleForecaster>> served = registry.Get(1);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(registry.Get(2).status().IsNotFound());
  EXPECT_TRUE(registry.IsQuarantined(2));
  std::vector<double> live_pred, staged_pred, actual;
  const size_t n = ds1.num_days();
  for (size_t k = 1; k <= static_cast<size_t>(options.holdout_days); ++k) {
    live_pred.push_back(served.value()->PredictTarget(ds1, n - k).value());
    staged_pred.push_back(staged1.PredictTarget(ds1, n - k).value());
    actual.push_back(ds1.hours()[n - k]);
  }
  EXPECT_EQ(report.value().holdout_points, actual.size());
  EXPECT_DOUBLE_EQ(report.value().live_pe,
                   PercentageError(std::span<const double>(live_pred),
                                   std::span<const double>(actual)));
  EXPECT_DOUBLE_EQ(report.value().staged_pe,
                   PercentageError(std::span<const double>(staged_pred),
                                   std::span<const double>(actual)));
}

TEST_F(ValidatorTest, MissingStagedDirectoryIsNotFound) {
  std::map<int64_t, const VehicleDataset*> probes;
  EXPECT_TRUE(ValidateGeneration(root_ + "/nope", "", probes)
                  .status()
                  .IsNotFound());
}

}  // namespace
}  // namespace vup::serve
