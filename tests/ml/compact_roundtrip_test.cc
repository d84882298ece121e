// Compact bundle codec: bitwise prediction parity against the in-memory
// model for every algorithm (per model and per forecaster pipeline),
// header/scaler round-trips, and the hostile-bytes error contract --
// truncation, bit-rot and retired versions must surface as clean Status
// errors, never UB, a crash or a misread.

#include "ml/compact.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "core/forecaster.h"
#include "ml/gradient_boosting.h"
#include "ml/lasso.h"
#include "ml/linear_regression.h"
#include "ml/svr.h"

namespace vup {
namespace {

void MakeProblem(Matrix* x, std::vector<double>* y, size_t n,
                 uint64_t seed) {
  Rng rng(seed);
  *x = Matrix(n, 4);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < 4; ++c) (*x)(r, c) = rng.Normal();
    (*y)[r] = 1.0 + 2.0 * (*x)(r, 0) - (*x)(r, 1) +
              std::sin(3.0 * (*x)(r, 2)) + 0.01 * rng.Normal();
  }
}

CompactPipelineHeader MakeHeader(Algorithm algorithm, bool standardize) {
  CompactPipelineHeader header;
  header.algorithm = static_cast<int>(algorithm);
  header.lookback_w = 14;
  header.lag_engine_features = 4;
  header.top_k = 7;
  header.use_feature_selection = true;
  header.standardize = standardize;
  header.clamp_predictions = true;
  header.include_target_day_context = true;
  header.include_lag_context = true;
  header.selected_lags = {1, 2, 7};
  header.selected_columns = {0, 3, 5, 9};
  return header;
}

/// Encodes `model`, decodes the bytes from a heap owner, and returns the
/// decoded pipeline. The owner keeps the buffer alive past this call.
DecodedCompactPipeline RoundTrip(const CompactPipelineHeader& header,
                                 const StandardScaler* scaler,
                                 const Regressor& model) {
  StatusOr<std::string> encoded =
      EncodeCompactPipeline(header, scaler, model);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto owner = std::make_shared<std::string>(std::move(encoded).value());
  StatusOr<DecodedCompactPipeline> decoded = DecodeCompactPipeline(
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(owner->data()), owner->size()),
      owner);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).value();
}

/// Compares predictions row by row, bit for bit.
void ExpectBitwiseParity(const Regressor& model, const Regressor& decoded,
                         const Matrix& x) {
  for (size_t r = 0; r < x.rows(); ++r) {
    const double want = model.PredictOne(x.Row(r)).value();
    const double got = decoded.PredictOne(x.Row(r)).value();
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << model.name() << " row " << r << ": " << want << " vs " << got;
  }
}

TEST(CompactRoundtripTest, LinearRegressionIsBitwise) {
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 80, 7);
  LinearRegression model({.ridge = 0.5});
  ASSERT_TRUE(model.Fit(x, y).ok());

  DecodedCompactPipeline decoded = RoundTrip(
      MakeHeader(Algorithm::kLinearRegression, false), nullptr, model);
  ASSERT_NE(decoded.model, nullptr);
  EXPECT_TRUE(decoded.model->fitted());
  ExpectBitwiseParity(model, *decoded.model, x);
}

TEST(CompactRoundtripTest, LassoIsBitwise) {
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 80, 11);
  Lasso model(Lasso::Options{.alpha = 0.05});
  ASSERT_TRUE(model.Fit(x, y).ok());

  DecodedCompactPipeline decoded =
      RoundTrip(MakeHeader(Algorithm::kLasso, false), nullptr, model);
  ASSERT_NE(decoded.model, nullptr);
  ExpectBitwiseParity(model, *decoded.model, x);
}

TEST(CompactRoundtripTest, SvrIsBitwiseForEveryKernel) {
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 60, 13);
  for (KernelType type :
       {KernelType::kRbf, KernelType::kLinear, KernelType::kPolynomial}) {
    Svr::Options o;
    o.c = 20.0;
    o.epsilon = 0.05;
    o.kernel.type = type;
    o.kernel.coef0 = 0.5;
    o.kernel.degree = 2;
    Svr model(o);
    ASSERT_TRUE(model.Fit(x, y).ok());

    DecodedCompactPipeline decoded =
        RoundTrip(MakeHeader(Algorithm::kSvr, false), nullptr, model);
    ASSERT_NE(decoded.model, nullptr);
    ExpectBitwiseParity(model, *decoded.model, x);
  }
}

TEST(CompactRoundtripTest, GradientBoostingIsBitwise) {
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 80, 17);
  GradientBoosting::Options o;
  o.n_estimators = 40;
  o.max_depth = 2;
  GradientBoosting model(o);
  ASSERT_TRUE(model.Fit(x, y).ok());

  DecodedCompactPipeline decoded = RoundTrip(
      MakeHeader(Algorithm::kGradientBoosting, false), nullptr, model);
  ASSERT_NE(decoded.model, nullptr);
  ExpectBitwiseParity(model, *decoded.model, x);

  // Training rows rarely land between a threshold and its rounding, so
  // also probe each split exactly at its threshold and one ulp above:
  // any threshold that did not round-trip sends one probe the other way.
  std::vector<std::pair<size_t, double>> splits;
  for (const RegressionTree& tree : model.trees()) {
    for (const RegressionTree::NodeState& node : tree.GetState()) {
      if (node.feature < 0) continue;
      const size_t f = static_cast<size_t>(node.feature);
      splits.emplace_back(f, node.threshold);
      splits.emplace_back(f, std::nextafter(node.threshold, HUGE_VAL));
    }
  }
  ASSERT_FALSE(splits.empty());
  Matrix probes(splits.size(), x.cols());
  for (size_t r = 0; r < splits.size(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) probes(r, c) = x(0, c);
    probes(r, splits[r].first) = splits[r].second;
  }
  ExpectBitwiseParity(model, *decoded.model, probes);
}

// ---- Forecaster pipeline parity ------------------------------------------

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

/// Weekday usage with seeded noise, so every algorithm fits a model with
/// many distinct weights (SVR keeps a large support set).
VehicleDataset NoisyWeeklyDataset(int n) {
  Rng rng(41);
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = Date::FromYmd(2016, 2, 1).value().AddDays(i);
    const int wd = static_cast<int>(r.date.weekday());
    r.hours = wd < 5 ? std::max(0.0, 4.0 + 0.5 * wd + rng.Normal()) : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 40 + 5 * rng.Uniform() : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = 31;
  return VehicleDataset::Build(info, recs, Italy()).value();
}

struct ParityCase {
  const char* name;
  ForecasterConfig config;
};

std::vector<ParityCase> ParityCases() {
  std::vector<ParityCase> cases;
  auto add = [&](const char* name, Algorithm algorithm) -> ForecasterConfig& {
    ForecasterConfig config;
    config.algorithm = algorithm;
    config.windowing.lookback_w = 14;
    config.selection.top_k = 7;
    cases.push_back({name, config});
    return cases.back().config;
  };
  add("LR", Algorithm::kLinearRegression);
  add("Lasso", Algorithm::kLasso);
  add("SVR-rbf", Algorithm::kSvr);
  add("SVR-linear", Algorithm::kSvr).svr.kernel.type = KernelType::kLinear;
  ForecasterConfig& poly = add("SVR-poly", Algorithm::kSvr);
  poly.svr.kernel.type = KernelType::kPolynomial;
  poly.svr.kernel.degree = 2;
  poly.svr.kernel.coef0 = 1.0;
  ForecasterConfig& lad = add("GB-LAD", Algorithm::kGradientBoosting);
  lad.gb.loss = GbLoss::kLeastAbsoluteDeviation;
  lad.gb.n_estimators = 40;
  ForecasterConfig& ls = add("GB-LS", Algorithm::kGradientBoosting);
  ls.gb.loss = GbLoss::kLeastSquares;
  ls.gb.n_estimators = 40;
  return cases;
}

TEST(CompactForecasterParityTest, ServedPredictionsAreBitwiseTrained) {
  const VehicleDataset ds = NoisyWeeklyDataset(260);
  for (const ParityCase& c : ParityCases()) {
    VehicleForecaster trained(c.config);
    ASSERT_TRUE(trained.Train(ds, 20, 200).ok()) << c.name;
    StatusOr<std::string> bytes = trained.SaveCompact();
    ASSERT_TRUE(bytes.ok()) << c.name << ": " << bytes.status().ToString();
    auto owner = std::make_shared<std::string>(std::move(bytes).value());
    StatusOr<VehicleForecaster> served = VehicleForecaster::LoadCompact(
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(owner->data()), owner->size()),
        owner);
    ASSERT_TRUE(served.ok()) << c.name << ": " << served.status().ToString();

    size_t targets = 0;
    for (size_t t = 150; t <= ds.num_days(); ++t, ++targets) {
      const double want = trained.PredictTarget(ds, t).value();
      const double got = served.value().PredictTarget(ds, t).value();
      ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
          << c.name << " target " << t << ": " << want << " vs " << got;
    }
    EXPECT_GE(targets, 50u) << c.name;
  }
}

TEST(CompactRoundtripTest, HeaderAndScalerRoundTrip) {
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 80, 19);
  StandardScaler scaler;
  ASSERT_TRUE(scaler.Fit(x).ok());
  Matrix xs = scaler.Transform(x).value();
  LinearRegression model;
  ASSERT_TRUE(model.Fit(xs, y).ok());

  const CompactPipelineHeader header =
      MakeHeader(Algorithm::kLinearRegression, /*standardize=*/true);
  DecodedCompactPipeline decoded = RoundTrip(header, &scaler, model);

  EXPECT_EQ(decoded.header.algorithm, header.algorithm);
  EXPECT_EQ(decoded.header.lookback_w, header.lookback_w);
  EXPECT_EQ(decoded.header.lag_engine_features,
            header.lag_engine_features);
  EXPECT_EQ(decoded.header.top_k, header.top_k);
  EXPECT_EQ(decoded.header.use_feature_selection,
            header.use_feature_selection);
  EXPECT_TRUE(decoded.header.standardize);
  EXPECT_EQ(decoded.header.clamp_predictions, header.clamp_predictions);
  EXPECT_EQ(decoded.header.include_target_day_context,
            header.include_target_day_context);
  EXPECT_EQ(decoded.header.include_lag_context,
            header.include_lag_context);
  EXPECT_EQ(decoded.header.selected_lags, header.selected_lags);
  EXPECT_EQ(decoded.header.selected_columns, header.selected_columns);

  // Scaler means/scales are f64 on the wire: bitwise round-trip, so the
  // standardization step cannot contribute to the prediction delta.
  ASSERT_TRUE(decoded.scaler.fitted());
  ASSERT_EQ(decoded.scaler.means().size(), scaler.means().size());
  for (size_t i = 0; i < scaler.means().size(); ++i) {
    EXPECT_EQ(decoded.scaler.means()[i], scaler.means()[i]);
    EXPECT_EQ(decoded.scaler.scales()[i], scaler.scales()[i]);
  }
}

TEST(CompactRoundtripTest, UnfittedModelIsNotEncoded) {
  const LinearRegression model;
  EXPECT_TRUE(EncodeCompactPipeline(
                  MakeHeader(Algorithm::kLinearRegression, false), nullptr,
                  model)
                  .status()
                  .IsFailedPrecondition());
}

TEST(CompactRoundtripTest, DecodedModelRefusesFit) {
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 40, 23);
  LinearRegression model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  DecodedCompactPipeline decoded = RoundTrip(
      MakeHeader(Algorithm::kLinearRegression, false), nullptr, model);
  EXPECT_TRUE(decoded.model->Fit(x, y).IsFailedPrecondition());
}

// ---- Hostile-bytes contract --------------------------------------------

/// A small encoded bundle of `algorithm` over a 4-feature problem.
std::string EncodeSample(Algorithm algorithm = Algorithm::kLinearRegression) {
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 40, 29);
  std::unique_ptr<Regressor> model;
  if (algorithm == Algorithm::kSvr) {
    model = std::make_unique<Svr>(Svr::Options{});
  } else if (algorithm == Algorithm::kGradientBoosting) {
    GradientBoosting::Options o;
    o.n_estimators = 8;
    o.max_depth = 2;
    model = std::make_unique<GradientBoosting>(o);
  } else {
    model = std::make_unique<LinearRegression>();
  }
  EXPECT_TRUE(model->Fit(x, y).ok());
  StatusOr<std::string> encoded =
      EncodeCompactPipeline(MakeHeader(algorithm, false), nullptr, *model);
  EXPECT_TRUE(encoded.ok());
  return std::move(encoded).value();
}

/// One sample per payload layout: linear, SVR, GB.
std::vector<std::string> EncodeSamples() {
  return {EncodeSample(Algorithm::kLinearRegression),
          EncodeSample(Algorithm::kSvr),
          EncodeSample(Algorithm::kGradientBoosting)};
}

Status DecodeBytes(std::string bytes) {
  auto owner = std::make_shared<std::string>(std::move(bytes));
  StatusOr<DecodedCompactPipeline> decoded = DecodeCompactPipeline(
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(owner->data()), owner->size()),
      owner);
  if (!decoded.ok()) return decoded.status();
  // Exercise the decoded model once so a structurally-wrong accept would
  // still be caught by sanitizers.
  std::vector<double> zeros(4, 0.0);
  (void)decoded.value().model->PredictOne(zeros);
  return Status::OK();
}

TEST(CompactHostileBytesTest, TooShortIsDataLoss) {
  EXPECT_TRUE(DecodeBytes("").IsDataLoss());
  EXPECT_TRUE(DecodeBytes("VUPC").IsDataLoss());
  EXPECT_TRUE(DecodeBytes(std::string(35, '\0')).IsDataLoss());
}

TEST(CompactHostileBytesTest, WrongMagicIsInvalidArgument) {
  std::string bytes = EncodeSample();
  bytes[0] = 'X';
  EXPECT_TRUE(DecodeBytes(bytes).IsInvalidArgument());
}

TEST(CompactHostileBytesTest, NewerVersionIsUnimplemented) {
  std::string bytes = EncodeSample();
  // Version is checked before the CRC: a reader that cannot understand
  // the format must say so, not misreport it as corruption.
  bytes[4] = 3;
  bytes[5] = 0;
  EXPECT_TRUE(DecodeBytes(bytes).IsUnimplemented());
}

TEST(CompactHostileBytesTest, VersionOneIsRefusedNeverMisread) {
  // A v1 LR bundle is byte for byte a v2 one with version 1 (LR was f64
  // in both); v1 Lasso/SVR/GB payloads held float32 that v2 would misread.
  // So any bundle stamped v1, even with a valid CRC, must be refused.
  std::string bytes = EncodeSample();
  bytes[4] = 1;
  bytes[5] = 0;
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  const Status status = DecodeBytes(bytes);
  EXPECT_TRUE(status.IsUnimplemented()) << status.ToString();
  EXPECT_NE(status.message().find("re-publish"), std::string::npos)
      << status.ToString();
}

TEST(CompactHostileBytesTest, MisalignedBytesAreRefused) {
  // Payloads are read in place as f64 spans: a span one byte into a heap
  // buffer is refused, never copied or read through a misaligned pointer.
  const std::string bytes = EncodeSample(Algorithm::kSvr);
  auto owner = std::make_shared<std::string>("x" + bytes);
  StatusOr<DecodedCompactPipeline> decoded = DecodeCompactPipeline(
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(owner->data()) + 1, bytes.size()),
      owner);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
  EXPECT_TRUE(DecodeBytes(bytes).ok());
}

TEST(CompactHostileBytesTest, EveryTruncationFailsCleanly) {
  for (const std::string& bytes : EncodeSamples()) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      Status status = DecodeBytes(bytes.substr(0, len));
      ASSERT_FALSE(status.ok()) << "truncated to " << len << " decoded";
      ASSERT_TRUE(status.IsDataLoss() || status.IsInvalidArgument() ||
                  status.IsUnimplemented())
          << "truncated to " << len << ": " << status.ToString();
    }
  }
}

TEST(CompactHostileBytesTest, SingleBitFlipsNeverDecode) {
  // Every bit of each small bundle: the CRC (verified before the
  // structure walk) must catch each flip; flips inside magic/version
  // fields may surface as their dedicated errors instead.
  for (const std::string& bytes : EncodeSamples()) {
    for (size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = bytes;
        mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
        Status status = DecodeBytes(mutated);
        ASSERT_FALSE(status.ok())
            << "flip byte " << byte << " bit " << bit << " decoded";
        ASSERT_TRUE(status.IsDataLoss() || status.IsInvalidArgument() ||
                    status.IsUnimplemented())
            << "flip byte " << byte << " bit " << bit << ": "
            << status.ToString();
      }
    }
  }
}

TEST(CompactHostileBytesTest, SeededMutationFuzzNeverCrashes) {
  const std::string bytes = EncodeSample();
  Rng rng(31);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = bytes;
    // 1-8 random byte mutations, then sometimes a random truncation or
    // extension -- the shapes bit-rot and torn writes actually produce.
    const int mutations = 1 + static_cast<int>(rng.UniformInt(0, 7));
    for (int m = 0; m < mutations; ++m) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      const char flip = static_cast<char>(1 + rng.UniformInt(0, 254));
      mutated[at] = static_cast<char>(mutated[at] ^ flip);
    }
    if (rng.UniformInt(0, 3) == 0) {
      mutated.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()))));
    } else if (rng.UniformInt(0, 7) == 0) {
      mutated += std::string(
          static_cast<size_t>(rng.UniformInt(1, 64)), '\x5a');
    }
    if (mutated == bytes) continue;
    Status status = DecodeBytes(mutated);
    ASSERT_FALSE(status.ok()) << "iter " << iter << " decoded";
    ASSERT_TRUE(status.IsDataLoss() || status.IsInvalidArgument() ||
                status.IsUnimplemented())
        << "iter " << iter << ": " << status.ToString();
  }
}

TEST(CompactHostileBytesTest, TrailingBytesAreDataLoss) {
  std::string bytes = EncodeSample();
  bytes += '\0';
  EXPECT_TRUE(DecodeBytes(bytes).IsDataLoss());
}

TEST(CompactHostileBytesTest, RandomGarbageNeverDecodes) {
  Rng rng(1234);
  for (int round = 0; round < 500; ++round) {
    std::string garbage(static_cast<size_t>(rng.UniformInt(0, 512)), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.UniformInt(0, 255));
    // Often a valid magic and version, so the CRC check is reached.
    if (rng.Bernoulli(0.5)) garbage = std::string("VUPC\x02\x00", 6) + garbage;
    const Status status = DecodeBytes(garbage);
    ASSERT_FALSE(status.ok()) << "round " << round << " decoded";
    ASSERT_TRUE(status.IsDataLoss() || status.IsInvalidArgument() ||
                status.IsUnimplemented())
        << "round " << round << ": " << status.ToString();
  }
}

// ---- Structural lies that pass the CRC ---------------------------------
//
// Each case overwrites one field and then recomputes the CRC trailer, so
// the edit reaches the decoder's structural checks. Offsets follow the
// layout in ml/compact.h for MakeHeader's 3 lags and 4 columns over 4
// features: columns at 44, a scaler's scales at 92, and the payload at 64
// without a scaler.

constexpr size_t kColumnsAt = 32 + 4 * 3;
constexpr size_t kPayloadAt = 64;

template <typename T>
std::string WithValidCrc(std::string bytes, size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  return bytes;
}

TEST(CompactHostileBytesTest, HeaderLiesWithValidCrcAreDataLoss) {
  const std::string bytes = EncodeSample();
  ASSERT_TRUE(DecodeBytes(WithValidCrc(bytes, 8, uint32_t{14})).ok());
  EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, 6, uint8_t{9})).IsDataLoss());
  EXPECT_TRUE(
      DecodeBytes(WithValidCrc(bytes, 7, uint8_t{0x80})).IsDataLoss());
  EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, 8, uint32_t{0})).IsDataLoss());
  EXPECT_TRUE(
      DecodeBytes(WithValidCrc(bytes, 20, uint32_t{0})).IsDataLoss());
  for (uint32_t count : {uint32_t{1} << 17, uint32_t{0xFFFFFFFF}, 1000u}) {
    EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, 24, count)).IsDataLoss())
        << "num_selected_lags " << count;
    EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, 28, count)).IsDataLoss())
        << "num_selected_columns " << count;
  }
}

TEST(CompactHostileBytesTest, SvrLiesWithValidCrcAreDataLoss) {
  const std::string bytes = EncodeSample(Algorithm::kSvr);
  const size_t num_sv_at = kPayloadAt + 32;
  // Past the cell cap, and under it but past the buffer: no allocation of
  // the claimed size either way.
  for (uint32_t num_sv : {0xFFFFFFFFu, (1u << 20) + 1, 1000u}) {
    EXPECT_TRUE(
        DecodeBytes(WithValidCrc(bytes, num_sv_at, num_sv)).IsDataLoss())
        << "num_sv " << num_sv;
  }
  EXPECT_TRUE(
      DecodeBytes(WithValidCrc(bytes, kPayloadAt + 24, uint32_t{3}))
          .IsDataLoss());  // Kernel type.
  EXPECT_TRUE(
      DecodeBytes(WithValidCrc(bytes, kPayloadAt + 28, uint32_t{1} << 17))
          .IsDataLoss());  // Degree.
  for (double gamma : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_TRUE(
        DecodeBytes(WithValidCrc(bytes, kPayloadAt, gamma)).IsDataLoss())
        << "gamma " << gamma;
  }
}

TEST(CompactHostileBytesTest, GbLiesWithValidCrcAreDataLoss) {
  const std::string bytes = EncodeSample(Algorithm::kGradientBoosting);
  const size_t num_trees_at = kPayloadAt + 16;
  const size_t nodes_at = num_trees_at + 8;  // After num_trees, num_nodes.
  uint16_t root_feature = 0;
  std::memcpy(&root_feature, bytes.data() + nodes_at, sizeof(root_feature));
  ASSERT_NE(root_feature, 0xFFFF) << "the first tree's root is a leaf";

  for (uint32_t num_trees : {0xFFFFFFFFu, (1u << 16) + 1, 1000u}) {
    EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, num_trees_at, num_trees))
                    .IsDataLoss())
        << "num_trees " << num_trees;
  }
  EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, num_trees_at + 4, uint32_t{0}))
                  .IsDataLoss());  // An empty tree.
  // A child pointing back at the root would loop forever; a split on
  // feature 4 of 4 would read past the row.
  EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, nodes_at + 2, uint16_t{0}))
                  .IsDataLoss());
  EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, nodes_at + 4, uint16_t{0}))
                  .IsDataLoss());
  EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, nodes_at, uint16_t{4}))
                  .IsDataLoss());
}

TEST(CompactHostileBytesTest, ScalerLiesWithValidCrcAreDataLoss) {
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 40, 29);
  StandardScaler scaler;
  ASSERT_TRUE(scaler.Fit(x).ok());
  LinearRegression model;
  ASSERT_TRUE(model.Fit(scaler.Transform(x).value(), y).ok());
  const std::string bytes =
      EncodeCompactPipeline(MakeHeader(Algorithm::kLinearRegression, true),
                            &scaler, model)
          .value();
  const size_t scales_at = kColumnsAt + 4 * 4 + 8 * 4;
  ASSERT_TRUE(DecodeBytes(WithValidCrc(bytes, scales_at, 2.0)).ok());
  for (double scale : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, scales_at, scale)).IsDataLoss())
        << "scale " << scale;
  }
  EXPECT_TRUE(DecodeBytes(WithValidCrc(bytes, scales_at - 8, std::nan("")))
                  .IsDataLoss());  // The last mean.
}

// ---- Whole forecaster bundles ----------------------------------------------

Status LoadForecasterBytes(std::string bytes) {
  return VehicleForecaster::LoadCompact(std::move(bytes)).status();
}

/// A trained Lasso pipeline's bundle: selected lags and columns, a
/// scaler and a payload, as `vupred train --out` writes it.
std::string ForecasterBundle() {
  ForecasterConfig config;
  config.algorithm = Algorithm::kLasso;
  config.windowing.lookback_w = 14;
  config.selection.top_k = 7;
  const VehicleDataset ds = NoisyWeeklyDataset(220);
  VehicleForecaster forecaster(config);
  EXPECT_TRUE(forecaster.Train(ds, 20, 200).ok());
  return forecaster.SaveCompact().value();
}

TEST(CompactHostileBytesTest, ColumnOutOfRangeWithValidCrcIsDataLoss) {
  const std::string bytes = ForecasterBundle();
  ASSERT_TRUE(LoadForecasterBytes(bytes).ok());
  uint32_t num_lags = 0;
  uint32_t num_cols = 0;
  std::memcpy(&num_lags, bytes.data() + 24, sizeof(num_lags));
  std::memcpy(&num_cols, bytes.data() + 28, sizeof(num_cols));
  ASSERT_GT(num_cols, 0u);
  // The decoder accepts any u32 column; the pipeline check against the
  // window column set refuses it, and the forecaster reports DataLoss.
  const size_t last_col_at = 32 + 4 * (num_lags + num_cols - 1);
  const Status status =
      LoadForecasterBytes(WithValidCrc(bytes, last_col_at, uint32_t{99999}));
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
}

TEST(CompactHostileBytesTest, ForecasterBundleTruncatedOrFlippedNeverLoads) {
  const std::string bytes = ForecasterBundle();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const Status status = LoadForecasterBytes(bytes.substr(0, len));
    ASSERT_FALSE(status.ok()) << "truncated to " << len << " loaded";
  }
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    std::string mutated = bytes;
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << (byte % 8)));
    const Status status = LoadForecasterBytes(mutated);
    ASSERT_FALSE(status.ok()) << "flip in byte " << byte << " loaded";
  }
}

}  // namespace
}  // namespace vup
