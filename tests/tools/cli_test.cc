// End-to-end test of the vupred CLI binary: generate -> train -> predict
// -> evaluate through real process invocations, the way a user drives it.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "obs/export.h"

#ifndef VUP_CLI_PATH
#error "VUP_CLI_PATH must be defined by the build"
#endif

namespace vup {
namespace {

std::string TempDir() {
  std::string dir = ::testing::TempDir() + "/vup_cli_test";
  std::string cmd = "mkdir -p " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

int RunCli(const std::string& args, const std::string& stdout_file = "") {
  std::string cmd = std::string(VUP_CLI_PATH) + " " + args;
  if (!stdout_file.empty()) cmd += " > " + stdout_file;
  return std::system(cmd.c_str());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The target of the symlink at `path`; empty when it is not one.
std::string ReadLink(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path target = std::filesystem::read_symlink(path, ec);
  return ec ? std::string() : target.string();
}

/// Reads the country of the first manifest vehicle.
std::string FirstCountry(const std::string& manifest) {
  std::ifstream in(manifest);
  std::string line;
  std::getline(in, line);  // Header.
  std::getline(in, line);
  size_t commas = 0, start = 0;
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == ',') {
      ++commas;
      if (commas == 3) start = i + 1;
      if (commas == 4) return line.substr(start, i - start);
    }
  }
  return "IT";
}

TEST(CliTest, FullWorkflow) {
  std::string dir = TempDir();

  // generate
  ASSERT_EQ(RunCli("generate --out=" + dir + " --vehicles=2 --seed=7"), 0);
  std::string manifest = dir + "/manifest.csv";
  std::string data = dir + "/vehicle_100000.csv";
  ASSERT_FALSE(ReadFile(manifest).empty());
  ASSERT_FALSE(ReadFile(data).empty());
  std::string country = FirstCountry(manifest);

  // train
  std::string model = dir + "/model.txt";
  ASSERT_EQ(RunCli("train --data=" + data + " --out=" + model +
                   " --algorithm=Lasso --country=" + country),
            0);
  std::string model_text = ReadFile(model);
  EXPECT_NE(model_text.find("vupred-forecaster v1"), std::string::npos);
  EXPECT_NE(model_text.find("type Lasso"), std::string::npos);

  // predict
  std::string pred_file = dir + "/pred.txt";
  ASSERT_EQ(RunCli("predict --data=" + data + " --model=" + model +
                       " --country=" + country,
                   pred_file),
            0);
  std::string pred = ReadFile(pred_file);
  EXPECT_NE(pred.find("2018-10-01"), std::string::npos);

  // evaluate
  std::string eval_file = dir + "/eval.txt";
  ASSERT_EQ(RunCli("evaluate --data=" + data + " --algorithm=Lasso" +
                       " --country=" + country +
                       " --scenario=next-working-day --eval-days=30",
                   eval_file),
            0);
  std::string eval = ReadFile(eval_file);
  EXPECT_NE(eval.find("PE="), std::string::npos);
  EXPECT_NE(eval.find("NextWorkingDay"), std::string::npos);
}

TEST(CliTest, FleetCommandCleanRun) {
  std::string dir = TempDir();
  std::string out = dir + "/fleet.txt";
  ASSERT_EQ(RunCli("fleet --vehicles=30 --max-vehicles=2 --eval-days=10 "
                   "--fault-profile=none --strict",
                   out),
            0);
  std::string text = ReadFile(out);
  EXPECT_NE(text.find("PE="), std::string::npos);
  EXPECT_NE(text.find("quarantined=0"), std::string::npos);
  EXPECT_NE(text.find("fault-profile=none"), std::string::npos);
}

TEST(CliTest, FleetStrictFailsOnQuarantine) {
  std::string dir = TempDir();
  std::string out = dir + "/fleet_severe.txt";
  // A hard-down source quarantines every vehicle; --strict must turn that
  // into a non-zero exit while the run itself still completes.
  std::string args =
      "fleet --vehicles=30 --max-vehicles=2 --eval-days=10 "
      "--fault-profile=severe --fault-seed=2";
  ASSERT_EQ(RunCli(args, out), 0);  // Degradation alone is not an error.
  std::string text = ReadFile(out);
  EXPECT_NE(text.find("degradation:"), std::string::npos);
  EXPECT_NE(RunCli(args + " --strict", out), 0);
}

TEST(CliTest, FleetRejectsUnknownFaultProfile) {
  EXPECT_NE(RunCli("fleet --fault-profile=catastrophic"), 0);
}

TEST(CliTest, FleetRejectsNonPositiveVehicleCount) {
  EXPECT_NE(RunCli("fleet --vehicles=0"), 0);
  EXPECT_NE(RunCli("fleet --vehicles=-3"), 0);
}

TEST(CliTest, BadUsageFailsCleanly) {
  EXPECT_NE(RunCli(""), 0);
  EXPECT_NE(RunCli("frobnicate"), 0);
  EXPECT_NE(RunCli("train"), 0);          // Missing flags.
  EXPECT_NE(RunCli("predict --data=/nonexistent.csv --model=/none.txt"),
            0);
}

/// Exit code of the CLI process (std::system wraps it in a wait status).
int CliExitCode(const std::string& args) {
  int raw = RunCli(args + " 2> /dev/null");
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

TEST(CliTest, HelpExitsZeroForEveryCommand) {
  std::string dir = TempDir();
  for (const char* cmd : {"generate", "train", "predict", "evaluate",
                          "fleet", "publish"}) {
    std::string out = dir + "/help.txt";
    EXPECT_EQ(RunCli(std::string(cmd) + " --help", out), 0) << cmd;
    EXPECT_NE(ReadFile(out).find("usage: vupred "), std::string::npos)
        << cmd;
  }
  EXPECT_EQ(CliExitCode("--help"), 0);
}

TEST(CliTest, UnknownFlagsExitWithCodeTwo) {
  EXPECT_EQ(CliExitCode("fleet --no-such-flag=1"), 2);
  EXPECT_EQ(CliExitCode("generate --out=/tmp --frobnicate"), 2);
  EXPECT_EQ(CliExitCode("evaluate --data=x.csv stray-positional"), 2);
  EXPECT_EQ(CliExitCode("train"), 2);  // Missing required flags.
  EXPECT_EQ(CliExitCode("nosuchcommand"), 2);
  // The training, publish and serving benchmarks live in perfbench/, the
  // wire ingest path is gone, the cluster benchmark's checks are ctests
  // and its PE report is `fleet --clusters`; their old CLI commands are
  // unknown commands now.
  for (const char* retired : {"core-bench", "publish-bench", "serve-bench",
                              "ingest-bench", "cluster-bench"}) {
    EXPECT_EQ(CliExitCode(retired), 2) << retired;
    EXPECT_EQ(CliExitCode(std::string(retired) + " --help"), 2) << retired;
  }
}

TEST(CliTest, MalformedNumbersExitWithCodeTwo) {
  // A value that does not parse is a usage error naming the flag, never a
  // silent fall back to the default.
  const std::string err = TempDir() + "/malformed.err";
  int raw = RunCli("fleet --vehicles=7x 2> " + err);
  ASSERT_TRUE(WIFEXITED(raw));
  EXPECT_EQ(WEXITSTATUS(raw), 2);
  EXPECT_NE(ReadFile(err).find("--vehicles=7x"), std::string::npos);
  EXPECT_EQ(CliExitCode("fleet --max-vehicles=two"), 2);
  EXPECT_EQ(CliExitCode("fleet --jobs="), 2);
  EXPECT_EQ(CliExitCode("generate --out=/tmp --seed=4.5"), 2);
  EXPECT_EQ(CliExitCode("evaluate --data=x.csv --eval-days=1e2"), 2);
  const std::string dir = TempDir() + "/malformed_registry";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(CliExitCode("publish --out=" + dir + " --canary-fraction=half"),
            2);
  EXPECT_EQ(CliExitCode("publish --out=" + dir + " --keep-generations=2g"),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(CliTest, UnknownNamesExitWithCodeTwo) {
  // An unknown algorithm or scenario name must not run another one.
  const std::string dir = TempDir() + "/unknown_names";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(RunCli("generate --out=" + dir + " --vehicles=1 --seed=7",
                   dir + "/generate.txt"),
            0);
  const std::string data = "--data=" + dir + "/vehicle_100000.csv --country=" +
                           FirstCountry(dir + "/manifest.csv");
  EXPECT_EQ(CliExitCode("evaluate " + data +
                        " --algorithm=Lasso --scenario=typo --eval-days=10"),
            2);
  EXPECT_EQ(CliExitCode("evaluate " + data + " --algorithm=lasso"), 2);
  EXPECT_EQ(CliExitCode("train " + data + " --out=" + dir +
                        "/model.txt --algorithm=Bogus"),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir + "/model.txt"));
  EXPECT_EQ(CliExitCode("fleet --algorithm=Lasoo --max-vehicles=2"), 2);
  EXPECT_EQ(CliExitCode("publish --out=" + dir +
                        "/reg --algorithm=Bogus --max-vehicles=2"),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir + "/reg"));
}

TEST(CliTest, BaselineAlgorithmsRejectedWherePooledOrSaved) {
  // Baselines have no pooled fit and no state to save: --clusters, train
  // and publish refuse them before doing any work.
  EXPECT_EQ(CliExitCode("fleet --clusters=2 --algorithm=MA"), 2);
  EXPECT_EQ(CliExitCode("fleet --clusters=2 --algorithm=LV"), 2);
  const std::string dir = TempDir() + "/baseline_registry";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(CliExitCode("train --data=x.csv --out=" + dir + ".txt" +
                        " --algorithm=MA"),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir + ".txt"));
  EXPECT_EQ(CliExitCode("publish --out=" + dir +
                        " --algorithm=LV --max-vehicles=2"),
            2);
  EXPECT_EQ(CliExitCode("publish --out=" + dir + " --algorithm=MA"), 2);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(CliTest, FleetClustersWithNoEvaluableVehicleFails) {
  // One-day holdouts that all fall on idle days leave no PE to report:
  // an error, not a hierarchy line of 0.00 %.
  const std::string out = TempDir() + "/fleet_clusters_empty.txt";
  int raw = RunCli("fleet --clusters=1 --eval-days=1 --max-vehicles=3 "
                   "2> /dev/null",
                   out);
  ASSERT_TRUE(WIFEXITED(raw));
  EXPECT_EQ(WEXITSTATUS(raw), 1);
  EXPECT_EQ(ReadFile(out).find("hierarchy k="), std::string::npos);
}

TEST(CliTest, NegativeSeedsExitWithCodeTwo) {
  // A negative seed would wrap to a huge uint64_t; publish would record it
  // in a registry_meta.txt that its own reader rejects.
  const std::string dir = TempDir() + "/negative_seed";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_EQ(CliExitCode("generate --out=" + dir + " --vehicles=1 --seed=-1"),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir + "/manifest.csv"));
  EXPECT_EQ(CliExitCode("fleet --vehicles=2 --max-vehicles=1 --seed=-1"), 2);
  EXPECT_EQ(
      CliExitCode("fleet --vehicles=2 --max-vehicles=1 --fault-seed=-5"), 2);
  EXPECT_EQ(CliExitCode("publish --out=" + dir +
                        "/reg --vehicles=2 --max-vehicles=1 --seed=-1"),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir + "/reg"));
}

TEST(CliTest, FleetJobsOutputByteIdentical) {
  std::string dir = TempDir();
  std::string base =
      "fleet --vehicles=20 --max-vehicles=3 --eval-days=10 ";
  std::string serial = dir + "/fleet_j1.txt";
  std::string parallel = dir + "/fleet_j4.txt";
  std::string auto_jobs = dir + "/fleet_j0.txt";
  ASSERT_EQ(RunCli(base + "--jobs=1", serial), 0);
  ASSERT_EQ(RunCli(base + "--jobs=4", parallel), 0);
  std::string serial_text = ReadFile(serial);
  ASSERT_FALSE(serial_text.empty());
  EXPECT_EQ(serial_text, ReadFile(parallel));
  // --jobs=0 means auto-size to the hardware; the report must stay
  // byte-identical whatever width auto picks.
  ASSERT_EQ(RunCli(base + "--jobs=0", auto_jobs), 0);
  EXPECT_EQ(serial_text, ReadFile(auto_jobs));
  // Negative widths are still a usage error.
  EXPECT_EQ(CliExitCode("fleet --jobs=-1"), 2);
}

TEST(CliTest, PublishWritesOneCompactBundlePerVehicle) {
  std::string dir = TempDir();
  std::string registry = dir + "/registry";
  // A fresh registry: a leftover one from an earlier build of the suite
  // may hold sidecars this build does not read.
  std::filesystem::remove_all(registry);
  ASSERT_EQ(RunCli("publish --out=" + registry +
                   " --vehicles=10 --max-vehicles=2 --train-days=120"),
            0);
  // Publish commits an immutable generation and flips the CURRENT symlink
  // at it; the meta lives inside the generation directory, not the
  // registry root.
  const std::string current = ReadLink(registry + "/CURRENT");
  ASSERT_EQ(current, "gen_000001");
  std::string gen_dir = registry + "/" + current;
  EXPECT_FALSE(ReadFile(gen_dir + "/registry_meta.txt").empty());
  // One compact bundle per vehicle, the meta and the MANIFEST: nothing
  // else.
  size_t bundles = 0;
  for (const auto& entry : std::filesystem::directory_iterator(gen_dir)) {
    const std::string name = entry.path().filename().string();
    if (name == "registry_meta.txt" || name == "MANIFEST") continue;
    EXPECT_EQ(name.rfind("vehicle_", 0), 0u) << name;
    EXPECT_EQ(entry.path().extension().string(), ".cfcst") << name;
    ++bundles;
  }
  EXPECT_EQ(bundles, 2u);
  // Compact bundles are the only format: the old twin flag is gone.
  EXPECT_EQ(CliExitCode("publish --out=" + registry + " --compact"), 2);
}

TEST(CliTest, MetricsFlagsValidation) {
  // Misspelled --metrics-* flags hit the unknown-flag allowlist.
  EXPECT_EQ(CliExitCode("fleet --metrics-outt=/tmp/x.prom"), 2);
  EXPECT_EQ(CliExitCode("fleet --metrics-fromat=json"), 2);
  EXPECT_EQ(CliExitCode("fleet --metrics-bogus=1"), 2);
  // A bad format value is rejected before any work happens.
  EXPECT_EQ(CliExitCode("fleet --metrics-out=/tmp/x --metrics-format=xml"),
            2);
  EXPECT_EQ(CliExitCode("fleet --metrics-format=xml"), 2);
}

TEST(CliTest, FleetMetricsDeterministicAcrossRuns) {
  std::string dir = TempDir();
  std::string base =
      "fleet --vehicles=20 --max-vehicles=3 --eval-days=10 --jobs=4 ";
  std::string prom_a = dir + "/fleet_metrics_a.prom";
  std::string prom_b = dir + "/fleet_metrics_b.prom";
  ASSERT_EQ(RunCli(base + "--metrics-out=" + prom_a,
                   dir + "/fleet_metrics_a.txt"),
            0);
  ASSERT_EQ(RunCli(base + "--metrics-out=" + prom_b,
                   dir + "/fleet_metrics_b.txt"),
            0);

  obs::ParsedMetrics a, b;
  std::string error;
  ASSERT_TRUE(obs::ParsePrometheusText(ReadFile(prom_a), &a, &error))
      << error;
  ASSERT_TRUE(obs::ParsePrometheusText(ReadFile(prom_b), &b, &error))
      << error;
  ASSERT_EQ(a.samples.size(), b.samples.size());

  // Same seed, same work: every metric value matches across the two runs
  // except wall-time measurements, which are all namespaced *_seconds.
  for (const obs::ParsedSample& sample : a.samples) {
    const obs::ParsedSample* other = b.Find(sample.name, sample.labels);
    ASSERT_NE(other, nullptr) << sample.name;
    if (sample.value != other->value) {
      EXPECT_EQ(sample.name.rfind("vupred_", 0), 0u) << sample.name;
      EXPECT_NE(sample.name.find("_seconds"), std::string::npos)
          << sample.name << " differs but is not a timing metric";
    }
  }

  // Spot-check the pipeline counters are real (nonzero and exact).
  EXPECT_EQ(a.Value("vupred_fleet_vehicles_evaluated_total", {}, -1.0),
            3.0);
  EXPECT_GT(a.Value("vupred_fleet_series_generated_total"), 0.0);
  EXPECT_GT(a.Value("vupred_clean_records_total"), 0.0);
  EXPECT_GT(a.Value("vupred_threadpool_tasks_total", {{"pool", "fleet"}}),
            0.0);
  EXPECT_EQ(a.Value("vupred_threadpool_queue_depth", {{"pool", "fleet"}},
                    -1.0),
            0.0);
}

TEST(CliTest, FleetMetricsJsonFormatAndTrace) {
  std::string dir = TempDir();
  std::string json_path = dir + "/fleet_metrics.json";
  std::string out = dir + "/fleet_metrics_json.txt";
  // A .json extension selects the JSON exporter without --metrics-format.
  ASSERT_EQ(RunCli("fleet --vehicles=10 --max-vehicles=2 --eval-days=10 "
                   "--metrics-out=" +
                       json_path,
                   out),
            0);
  EXPECT_NE(ReadFile(out).find("wrote metrics (json) to"),
            std::string::npos);
  std::string json_text = ReadFile(json_path);
  EXPECT_NE(
      json_text.find("\"vupred_fleet_vehicles_evaluated_total\": 2"),
      std::string::npos);

  // --trace prints the aggregated span tree for the training pipeline.
  std::string trace_out = dir + "/fleet_trace.txt";
  ASSERT_EQ(RunCli("fleet --vehicles=10 --max-vehicles=2 --eval-days=10 "
                   "--trace",
                   trace_out),
            0);
  std::string trace_text = ReadFile(trace_out);
  EXPECT_NE(trace_text.find("trace ("), std::string::npos);
  EXPECT_NE(trace_text.find("prepare"), std::string::npos);
  EXPECT_NE(trace_text.find("ingest"), std::string::npos);
  EXPECT_NE(trace_text.find("fit"), std::string::npos);
}

TEST(CliTest, FleetClustersReportsHierarchyComparison) {
  std::string dir = TempDir();
  std::string out = dir + "/fleet_clusters.txt";
  ASSERT_EQ(RunCli("fleet --vehicles=20 --max-vehicles=6 --eval-days=10 "
                   "--clusters=2",
                   out),
            0);
  std::string text = ReadFile(out);
  EXPECT_NE(text.find("hierarchy k=2 inertia="), std::string::npos);
  EXPECT_NE(text.find("per-cluster PE="), std::string::npos);
  EXPECT_NE(text.find("global PE="), std::string::npos);
}

TEST(CliTest, PublishWithClustersStagesHierarchyAndClustersMeta) {
  std::string dir = TempDir();
  std::string registry = dir + "/cluster_registry";
  // A fresh registry: a leftover one from an earlier build of the suite
  // may hold sidecars this build does not read.
  std::filesystem::remove_all(registry);
  std::string publish_out = dir + "/publish_clusters.txt";
  ASSERT_EQ(RunCli("publish --out=" + registry +
                       " --vehicles=10 --max-vehicles=4 --train-days=120 "
                       "--clusters=2",
                   publish_out),
            0);
  EXPECT_NE(ReadFile(publish_out)
                .find("pooled hierarchy bundles + clusters.meta (k=2)"),
            std::string::npos);

  // clusters.meta landed inside the committed generation.
  const std::string current = ReadLink(registry + "/CURRENT");
  ASSERT_EQ(current, "gen_000001");
  std::string gen_dir = registry + "/" + current;
  std::string meta_text = ReadFile(gen_dir + "/clusters.meta");
  EXPECT_NE(meta_text.find("vupred-clusters v2"), std::string::npos);
  EXPECT_TRUE(
      CheckCrc32Trailer(meta_text.data(), meta_text.size()).has_value());
}

TEST(CliTest, PublishGuardrailsValidateCanaryRollback) {
  std::string dir = TempDir();
  std::string registry = dir + "/guarded_registry";
  // A fresh registry: a leftover one from an earlier build of the suite
  // may hold sidecars this build does not read.
  std::filesystem::remove_all(registry);
  std::string base = "publish --out=" + registry +
                     " --vehicles=10 --max-vehicles=2 ";

  // First publish through the validation gate.
  std::string out1 = dir + "/publish_validate.txt";
  ASSERT_EQ(RunCli(base + "--train-days=120 --validate", out1), 0);
  EXPECT_NE(ReadFile(out1).find("validate: "), std::string::npos);
  const std::string first = ReadLink(registry + "/CURRENT");
  ASSERT_EQ(first, "gen_000001");

  // Second publish adds the canary drill against the live generation.
  std::string out2 = dir + "/publish_canary.txt";
  ASSERT_EQ(RunCli(base +
                       "--train-days=150 --validate --canary-fraction=1.0",
                   out2),
            0);
  EXPECT_NE(ReadFile(out2).find("canary: healthy"), std::string::npos);
  const std::string second = ReadLink(registry + "/CURRENT");
  EXPECT_EQ(second, "gen_000002");
  // The promotion was journaled: promoted, then previous.
  EXPECT_EQ(ReadLink(registry + "/ROLLBACK"), second + " " + first);

  // --rollback restores the previous generation...
  std::string out3 = dir + "/publish_rollback.txt";
  ASSERT_EQ(RunCli("publish --out=" + registry + " --rollback", out3), 0);
  EXPECT_NE(ReadFile(out3).find("rolled back"), std::string::npos);
  EXPECT_EQ(ReadLink(registry + "/CURRENT"), first);
  // ...and a second rollback of the spent journal fails cleanly.
  EXPECT_EQ(CliExitCode("publish --out=" + registry + " --rollback"), 1);
}

}  // namespace
}  // namespace vup
