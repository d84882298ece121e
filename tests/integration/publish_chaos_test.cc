// Crash-safety chaos for the guarded publish path: a publisher killed at
// ANY step of validate -> finalize -> journal -> promote -> rollback must
// leave the registry serving exactly one complete generation. The walk
// below constructs every intermediate on-disk state by hand and re-opens
// a fresh registry after each one. Also proves the manifest gate (a
// corrupt bundle is quarantined and the global model serves the vehicle
// -- the damaged bytes are never deserialized), that pruning spares
// journal-pinned generations, that both root pointers are symlinks (a
// regular-file one is refused with its fix), and -- under TSan via ci_tsan.sh -- that
// canary shadow-scoring races promote/rollback flips cleanly.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/forecaster.h"
#include "serve/guarded_publish.h"
#include "serve/manifest.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "telemetry/fault_injector.h"
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

class PublishChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/vup_publish_chaos_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
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

  void WriteRawFile(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  /// Opens a FRESH registry over root_ (as a restarted server would) and
  /// returns vehicle 1's served prediction. Any failure is a test failure
  /// and returns NaN so it cannot accidentally match an expectation.
  double ServedPrediction(const VehicleDataset& ds) {
    StatusOr<ModelRegistry> reg = ModelRegistry::Open({root_, 4});
    EXPECT_TRUE(reg.ok()) << reg.status().ToString();
    if (!reg.ok()) return std::numeric_limits<double>::quiet_NaN();
    StatusOr<std::shared_ptr<const VehicleForecaster>> model =
        reg.value().Get(1);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    if (!model.ok()) return std::numeric_limits<double>::quiet_NaN();
    return model.value()->PredictTarget(ds, ds.num_days()).value();
  }

  std::string root_;
  RegistryMeta rmeta_;
};

TEST_F(PublishChaosTest, KillAtEveryPublishStepServesOneCompleteGeneration) {
  StatusOr<ModelRegistry> opened = ModelRegistry::Open({root_, 4});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelRegistry registry = std::move(opened.value());

  const VehicleDataset ds = MakeDataset(1);
  VehicleForecaster own_a = TrainForecaster(MakeDataset(1));
  VehicleForecaster own_b = TrainForecaster(MakeDataset(4));
  const double pred_a = own_a.PredictTarget(ds, ds.num_days()).value();
  const double pred_b = own_b.PredictTarget(ds, ds.num_days()).value();
  ASSERT_NE(pred_a, pred_b);

  // Generation A is published for real; everything after is a hand-built
  // crash state of publishing generation B.
  RegistryMeta rmeta;
  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    ASSERT_TRUE(pub.value().Add(1, own_a).ok());
    ASSERT_TRUE(pub.value().Commit(rmeta).ok());
  }
  ASSERT_TRUE(registry.Reload().ok());
  const std::string gen_a =
      ModelRegistry::GenerationDirName(registry.active_generation());
  const std::string gen_b = ModelRegistry::GenerationDirName(2);

  // Kill 1: staging directory with bundles only.
  const std::string staging = root_ + "/" + gen_b + ".staging";
  fs::create_directories(staging);
  WriteBundle(staging, 1, own_b);
  EXPECT_EQ(ServedPrediction(ds), pred_a) << "bundles-only staging leaked";

  // Kill 2: + registry_meta.txt.
  ASSERT_TRUE(WriteRegistryMetaFile(staging, rmeta).ok());
  EXPECT_EQ(ServedPrediction(ds), pred_a) << "meta'd staging leaked";

  // Kill 3: + MANIFEST (staging is now byte-complete, still unrenamed).
  StatusOr<GenerationManifest> manifest =
      GenerationManifest::BuildFromDirectory(staging, {});
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_TRUE(WriteManifestFile(staging, manifest.value()).ok());
  EXPECT_EQ(ServedPrediction(ds), pred_a) << "manifested staging leaked";

  // Kill 4: renamed to the final name -- finalized but never promoted.
  fs::rename(staging, root_ + "/" + gen_b);
  EXPECT_EQ(ServedPrediction(ds), pred_a) << "unpromoted generation served";

  // Kill 5: torn rollback journal (temp link never renamed).
  fs::create_symlink(gen_b + " " + gen_a, root_ + "/ROLLBACK.tmp");
  EXPECT_EQ(ServedPrediction(ds), pred_a);

  // Kill 6: journal installed over the dangling temp link, CURRENT not yet
  // flipped. The journal now announces a promotion that never happened;
  // rollback must refuse rather than "restore" a pointer that never moved.
  ASSERT_TRUE(WriteRollbackJournal(root_, {gen_b, gen_a}).ok());
  EXPECT_FALSE(fs::is_symlink(root_ + "/ROLLBACK.tmp"));
  EXPECT_EQ(ServedPrediction(ds), pred_a) << "journal alone moved traffic";
  {
    StatusOr<ModelRegistry> fresh = ModelRegistry::Open({root_, 4});
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(fresh.value().Rollback().IsFailedPrecondition());
    EXPECT_EQ(fresh.value().active_generation(), 1u);
  }

  // Kill 7: torn CURRENT flip (temp link made, never renamed).
  fs::create_symlink(gen_b, root_ + "/CURRENT.tmp");
  EXPECT_EQ(ServedPrediction(ds), pred_a);

  // Kill 8: the temp link renamed over CURRENT -- the promotion is
  // complete, B serves.
  fs::rename(root_ + "/CURRENT.tmp", root_ + "/" + kCurrentFileName);
  EXPECT_EQ(ServedPrediction(ds), pred_b);
  StatusOr<RollbackJournal> journal = ReadRollbackJournal(root_);
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE((journal.value() == RollbackJournal{gen_b, gen_a}));

  // Kill 9: rollback torn mid-flip -- B keeps serving.
  fs::create_symlink(gen_a, root_ + "/CURRENT.tmp");
  EXPECT_EQ(ServedPrediction(ds), pred_b);

  // The rollback completes over the stale temp link: A serves again, and
  // the spent journal refuses a second rollback instead of ping-ponging.
  StatusOr<std::string> restored = RollbackGeneration(root_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), gen_a);
  EXPECT_EQ(ServedPrediction(ds), pred_a);
  EXPECT_TRUE(RollbackGeneration(root_).status().IsFailedPrecondition());
}

TEST_F(PublishChaosTest, RootPointersAreSymlinksThroughPromoteAndRollback) {
  StatusOr<ModelRegistry> opened = ModelRegistry::Open({root_, 4});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelRegistry registry = std::move(opened.value());
  const VehicleForecaster model = TrainForecaster(MakeDataset(1));
  const std::string current = root_ + "/" + kCurrentFileName;
  const std::string rollback = root_ + "/" + kRollbackJournalFileName;

  // A first publish journals `none` as the generation it replaced.
  ASSERT_TRUE(PublishFleet(registry, {{1, &model}}, rmeta_).ok());
  ASSERT_TRUE(fs::is_symlink(fs::symlink_status(current)));
  ASSERT_TRUE(fs::is_symlink(fs::symlink_status(rollback)));
  EXPECT_EQ(fs::read_symlink(current).string(), "gen_000001");
  EXPECT_EQ(fs::read_symlink(rollback).string(), "gen_000001 none");
  EXPECT_TRUE(RollbackGeneration(root_).status().IsFailedPrecondition());

  ASSERT_TRUE(PublishFleet(registry, {{1, &model}}, rmeta_).ok());
  EXPECT_EQ(fs::read_symlink(current).string(), "gen_000002");
  EXPECT_EQ(fs::read_symlink(rollback).string(), "gen_000002 gen_000001");

  // Rollback moves CURRENT back and leaves the journal as it was, so the
  // second rollback of the same promotion is refused.
  ASSERT_TRUE(registry.Rollback().ok());
  EXPECT_EQ(registry.active_generation(), 1u);
  ASSERT_TRUE(fs::is_symlink(fs::symlink_status(current)));
  EXPECT_EQ(fs::read_symlink(current).string(), "gen_000001");
  EXPECT_EQ(fs::read_symlink(rollback).string(), "gen_000002 gen_000001");
  EXPECT_TRUE(registry.Rollback().IsFailedPrecondition());
  EXPECT_EQ(registry.active_generation(), 1u);

  // No temp link is left behind.
  for (const fs::directory_entry& entry : fs::directory_iterator(root_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST_F(PublishChaosTest, RegularFilePointersAreRefusedWithTheFix) {
  const VehicleForecaster model = TrainForecaster(MakeDataset(1));
  const std::string fix = "delete CURRENT and ROLLBACK, then publish";
  for (const char* pointer : {kCurrentFileName, kRollbackJournalFileName}) {
    SCOPED_TRACE(pointer);
    fs::remove_all(root_);
    {
      StatusOr<ModelRegistry> opened = ModelRegistry::Open({root_, 4});
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      ASSERT_TRUE(PublishFleet(opened.value(), {{1, &model}}, rmeta_).ok());
      ASSERT_TRUE(PublishFleet(opened.value(), {{1, &model}}, rmeta_).ok());
    }
    // The pointer as an older build wrote it: a one-line regular file.
    const std::string path = root_ + "/" + pointer;
    fs::remove(path);
    WriteRawFile(path, "gen_000002\n");

    const Status rolled_back = RollbackGeneration(root_).status();
    EXPECT_TRUE(rolled_back.IsDataLoss()) << rolled_back.ToString();
    EXPECT_NE(rolled_back.message().find(fix), std::string::npos)
        << rolled_back.ToString();
    if (std::string(pointer) == kCurrentFileName) {
      const Status reopened = ModelRegistry::Open({root_, 4}).status();
      EXPECT_TRUE(reopened.IsDataLoss()) << reopened.ToString();
      EXPECT_NE(reopened.message().find(fix), std::string::npos)
          << reopened.ToString();
      EXPECT_TRUE(PromoteGeneration(root_, "gen_000001").IsDataLoss());
    } else {
      // Pruning cannot tell which generations the journal pins.
      StatusOr<ModelRegistry> reopened = ModelRegistry::Open({root_, 4});
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_TRUE(reopened.value().PruneGenerations(0).IsDataLoss());
      EXPECT_TRUE(fs::exists(root_ + "/gen_000001"));
    }
    // Nothing was rewritten over the refused file.
    EXPECT_FALSE(fs::is_symlink(fs::symlink_status(path)));
  }
}

TEST_F(PublishChaosTest, RollbackLinkMeetsGarbageTargets) {
  StatusOr<ModelRegistry> opened = ModelRegistry::Open({root_, 4});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const VehicleForecaster model = TrainForecaster(MakeDataset(1));
  ASSERT_TRUE(PublishFleet(opened.value(), {{1, &model}}, rmeta_).ok());
  ASSERT_TRUE(PublishFleet(opened.value(), {{1, &model}}, rmeta_).ok());
  const std::string rollback = root_ + "/" + kRollbackJournalFileName;
  const std::string garbage[] = {
      "gen_000002",
      "gen_000002 ",
      " gen_000001",
      "gen_000002  gen_000001",
      "gen_000002 gen_000001 gen_000000",
      "gen_000002 None",
      "gen_000002 gen_000000",
      "../gen_000002 gen_000001",
      "gen_000002 gen_000001\n",
      "gen_000002 " + std::string(200, '1'),
  };
  for (const std::string& target : garbage) {
    SCOPED_TRACE(target);
    fs::remove(rollback);
    fs::create_symlink(target, rollback);
    const Status read = ReadRollbackJournal(root_).status();
    EXPECT_TRUE(read.IsInvalidArgument() || read.IsDataLoss())
        << read.ToString();
    EXPECT_FALSE(RollbackGeneration(root_).ok());
    EXPECT_EQ(fs::read_symlink(root_ + "/" + kCurrentFileName).string(),
              "gen_000002");
  }
  // The valid target, for contrast, rolls back.
  fs::remove(rollback);
  fs::create_symlink("gen_000002 gen_000001", rollback);
  StatusOr<std::string> restored = RollbackGeneration(root_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), "gen_000001");
}

TEST_F(PublishChaosTest, ManifestFailingModelIsQuarantinedNeverScored) {
  StatusOr<ModelRegistry> opened = ModelRegistry::Open({root_, 4});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelRegistry registry = std::move(opened.value());

  const VehicleDataset ds = MakeDataset(1);
  VehicleForecaster own = TrainForecaster(MakeDataset(1));
  VehicleForecaster pooled = TrainForecaster(MakeDataset(3));
  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    ASSERT_TRUE(pub.value().Add(1, own).ok());
    ASSERT_TRUE(pub.value().Add(kGlobalModelId, pooled).ok());
    ASSERT_TRUE(pub.value().Commit(rmeta_).ok());
  }
  ASSERT_TRUE(registry.Reload().ok());

  // Bit-rot vehicle 1's bundle after publish: the manifest must catch it
  // on first load, quarantine it, and the global model serves the vehicle
  // instead -- the damaged bytes are never deserialized or scored.
  FaultInjector rot(FaultProfile::BitRot(), /*seed=*/11);
  StatusOr<FileCorruptionKind> kind =
      rot.CorruptFileOnDisk(registry.BundlePath(1), /*file_tag=*/1);
  ASSERT_TRUE(kind.ok()) << kind.status().ToString();
  ASSERT_NE(kind.value(), FileCorruptionKind::kNone);

  PredictionService service(&registry, nullptr);
  PredictionResponse resp = service.Predict({1, &ds, ds.num_days()});
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kGlobal);
  EXPECT_FALSE(resp.degraded);
  EXPECT_DOUBLE_EQ(resp.prediction,
                   pooled.PredictTarget(ds, ds.num_days()).value());

  EXPECT_TRUE(registry.IsQuarantined(1));
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_GE(stats.quarantine_blocks, 1u);
  EXPECT_EQ(stats.load_failures, 0u);  // Never deserialized.

  // Repeat requests stay on the fallback without re-reading the corpse.
  PredictionResponse again = service.Predict({1, &ds, ds.num_days()});
  EXPECT_EQ(again.level, ServedLevel::kGlobal);
  EXPECT_EQ(registry.stats().quarantines, 1u);
  EXPECT_GT(registry.stats().quarantine_blocks, stats.quarantine_blocks);
  EXPECT_GT(service.fallback_counts().global, 0u);
}

TEST_F(PublishChaosTest, PruneSparesJournalPinnedGenerations) {
  StatusOr<ModelRegistry> opened = ModelRegistry::Open({root_, 4});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelRegistry registry = std::move(opened.value());

  const VehicleDataset ds = MakeDataset(1);
  PredictionService service(&registry, nullptr);
  std::vector<double> served;  // Vehicle 1's answer while each was live.
  for (int g = 0; g < 3; ++g) {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    ASSERT_TRUE(
        pub.value().Add(1, TrainForecaster(MakeDataset(g + 1))).ok());
    ASSERT_TRUE(pub.value().Commit(rmeta_).ok());
    ASSERT_TRUE(registry.Reload().ok());
    PredictionResponse resp = service.Predict({1, &ds, ds.num_days()});
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    served.push_back(resp.prediction);
  }
  ASSERT_EQ(registry.active_generation(), 3u);
  ASSERT_NE(served[1], served[2]);

  // Roll back to generation 2; the journal now pins generation 3 (the
  // promotion it undid) and generation 2 (the restore target = active).
  ASSERT_TRUE(registry.Rollback().ok());
  ASSERT_EQ(registry.active_generation(), 2u);
  // Serving flips back to generation 2's own model, bit for bit.
  PredictionResponse restored = service.Predict({1, &ds, ds.num_days()});
  ASSERT_TRUE(restored.status.ok()) << restored.status.ToString();
  EXPECT_EQ(restored.level, ServedLevel::kVehicle);
  EXPECT_EQ(restored.prediction, served[1]);

  // keep=0 is the most aggressive prune there is -- it must still spare
  // the journal-pinned generation 3, or the journal becomes a pointer at
  // rubble. Generation 1 is unpinned and goes.
  ASSERT_TRUE(registry.PruneGenerations(0).ok());
  EXPECT_FALSE(
      fs::exists(root_ + "/" + ModelRegistry::GenerationDirName(1)));
  EXPECT_TRUE(
      fs::exists(root_ + "/" + ModelRegistry::GenerationDirName(2)));
  EXPECT_TRUE(
      fs::exists(root_ + "/" + ModelRegistry::GenerationDirName(3)));

  // The spared generation is still complete: re-promoting it works.
  ASSERT_TRUE(
      PromoteGeneration(root_, ModelRegistry::GenerationDirName(3)).ok());
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.active_generation(), 3u);
  EXPECT_TRUE(registry.Get(1).ok());
}

// The TSan target: reader threads (every one shadow-scoring against a
// staged registry, so the canary counters are hammered concurrently) race
// a promote/rollback/Reload flip loop. Every response must be OK, served
// at the vehicle level, and carry a prediction belonging to one of the
// two complete generations.
TEST_F(PublishChaosTest, CanaryReadersRacePromoteRollbackFlips) {
  StatusOr<ModelRegistry> opened = ModelRegistry::Open({root_, 4});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelRegistry registry = std::move(opened.value());

  const VehicleDataset ds = MakeDataset(1);
  VehicleForecaster own_a = TrainForecaster(MakeDataset(1));
  VehicleForecaster own_b = TrainForecaster(MakeDataset(4));
  const double pred_a = own_a.PredictTarget(ds, ds.num_days()).value();
  const double pred_b = own_b.PredictTarget(ds, ds.num_days()).value();

  std::string gen_a;
  std::string gen_b;
  for (int g = 0; g < 2; ++g) {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    ASSERT_TRUE(pub.value().Add(1, g == 0 ? own_a : own_b).ok());
    ASSERT_TRUE(pub.value().Commit(rmeta_).ok());
    ASSERT_TRUE(registry.Reload().ok());
    (g == 0 ? gen_a : gen_b) =
        ModelRegistry::GenerationDirName(registry.active_generation());
  }

  // The staged registry the canary shadow-scores against: a separate
  // committed generation trained on the same data, so divergence stays
  // under the bound.
  const std::string staged_dir = root_ + "_staged";
  fs::remove_all(staged_dir);
  StatusOr<ModelRegistry> staged_opened = ModelRegistry::Open({staged_dir, 4});
  ASSERT_TRUE(staged_opened.ok());
  ModelRegistry staged = std::move(staged_opened.value());
  const VehicleForecaster staged_model = TrainForecaster(MakeDataset(1));
  ASSERT_TRUE(PublishFleet(staged, {{1, &staged_model}}, rmeta_).ok());

  PredictionService::Options opts;
  opts.canary.staged = &staged;
  opts.canary.fraction = 1.0;  // Every vehicle is in the slice.
  opts.canary.seed = 7;
  opts.canary.divergence_hours = 24.0;
  PredictionService service(&registry, nullptr, opts);

  std::atomic<bool> done{false};
  std::atomic<size_t> bad_responses{0};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        PredictionResponse resp = service.Predict({1, &ds, ds.num_days()});
        const bool legal = resp.status.ok() &&
                           resp.level == ServedLevel::kVehicle &&
                           (resp.prediction == pred_a ||
                            resp.prediction == pred_b);
        if (!legal) bad_responses.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Bounce the active generation: rollback to A, re-promote B, reload
  // after every flip so readers see both fleets mid-stream.
  for (int flip = 0; flip < 60; ++flip) {
    if (flip % 2 == 0) {
      StatusOr<std::string> back = RollbackGeneration(root_);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ASSERT_EQ(back.value(), gen_a);
    } else {
      ASSERT_TRUE(PromoteGeneration(root_, gen_b).ok());
    }
    ASSERT_TRUE(registry.Reload().ok());
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(bad_responses.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  CanarySnapshot canary = service.canary_counts();
  EXPECT_GT(canary.shadow_scores, 0u);
  // fraction = 1.0: every successful live answer was shadow-scored once.
  EXPECT_EQ(canary.shadow_scores, reads.load());
  EXPECT_EQ(canary.nonfinite_outputs, 0u);
  EXPECT_EQ(canary.shadow_errors, 0u);
  EXPECT_TRUE(service.EvaluateCanary().healthy)
      << service.EvaluateCanary().reason;
  fs::remove_all(staged_dir);
}

}  // namespace
}  // namespace vup::serve
