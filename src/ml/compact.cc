#include "ml/compact.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/crc32.h"
#include "common/string_util.h"
#include "linalg/matrix.h"
#include "ml/gradient_boosting.h"
#include "ml/kernel.h"
#include "ml/lasso.h"
#include "ml/linear_regression.h"
#include "ml/svr.h"
#include "ml/tree.h"

namespace vup {
namespace {

// Algorithm codes: the integer values of vup::Algorithm (core layer).
constexpr uint8_t kAlgLr = 2;
constexpr uint8_t kAlgLasso = 3;
constexpr uint8_t kAlgSvr = 4;
constexpr uint8_t kAlgGb = 5;

constexpr uint8_t kFlagFeatureSelection = 1u << 0;
constexpr uint8_t kFlagStandardize = 1u << 1;
constexpr uint8_t kFlagClampPredictions = 1u << 2;
constexpr uint8_t kFlagTargetDayContext = 1u << 3;
constexpr uint8_t kFlagLagContext = 1u << 4;
constexpr uint8_t kKnownFlags =
    kFlagFeatureSelection | kFlagStandardize | kFlagClampPredictions |
    kFlagTargetDayContext | kFlagLagContext;

// Structural caps, enforced on decode before any count-sized allocation
// and on encode so every emitted bundle decodes.
constexpr uint32_t kMaxStructural = 1u << 16;
constexpr uint32_t kMaxCompactFeatures = 1u << 20;
constexpr uint64_t kMaxSvCells = 1ull << 23;  // num_sv * num_features.
constexpr uint32_t kMaxTrees = 1u << 16;
constexpr uint32_t kMaxNodesPerTree = 0xFFFF;  // Indices must fit u16.
constexpr uint16_t kLeafFeature = 0xFFFF;
constexpr size_t kGbNodeBytes = 22;  // u16 x3 + f64 x2, packed.

// Values are written as, and payload arrays read in place as, their
// native bytes.
static_assert(std::endian::native == std::endian::little,
              "compact bundles are little-endian and scored in place");

constexpr size_t kFixedHeaderBytes = 32;
constexpr size_t kMinBundleBytes = kFixedHeaderBytes + 4;  // + CRC.

// ---- put: native (little-endian) bytes appended; get: byte assembly,
// ---- so unaligned and strict-aliasing safe.

template <typename T>
void PutArray(std::string* out, std::span<const T> values) {
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size_bytes());
}

void PutU16(std::string* out, uint16_t v) { PutArray<uint16_t>(out, {&v, 1}); }
void PutU32(std::string* out, uint32_t v) { PutArray<uint32_t>(out, {&v, 1}); }
void PutF64(std::string* out, double v) { PutArray<double>(out, {&v, 1}); }

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (uint16_t{p[1]} << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return p[0] | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return GetU32(p) | (uint64_t{GetU32(p + 4)} << 32);
}

double GetF64(const uint8_t* p) { return std::bit_cast<double>(GetU64(p)); }

// Bounds-checked reader over the validated region (header..payload, CRC
// excluded). Every Take failure means the structure claims more bytes
// than the bundle holds.
struct Cursor {
  const uint8_t* p;
  const uint8_t* end;
  const uint8_t* base;  // Buffer start, for alignment padding.

  bool Take(size_t n, const uint8_t** out) {
    if (static_cast<size_t>(end - p) < n) return false;
    *out = p;
    p += n;
    return true;
  }
  bool U8(uint8_t* v) {
    const uint8_t* q;
    if (!Take(1, &q)) return false;
    *v = *q;
    return true;
  }
  bool U32(uint32_t* v) {
    const uint8_t* q;
    if (!Take(4, &q)) return false;
    *v = GetU32(q);
    return true;
  }
  bool F64(double* v) {
    const uint8_t* q;
    if (!Take(8, &q)) return false;
    *v = GetF64(q);
    return true;
  }
  // `count` doubles read in place. The layout keeps every such array at
  // an 8-byte offset and the decoder aligns the buffer, so the pointer is
  // aligned.
  bool F64s(size_t count, const double** v) {
    const uint8_t* q;
    if (count > static_cast<size_t>(end - p) / 8 || !Take(8 * count, &q)) {
      return false;
    }
    VUP_DCHECK((q - base) % 8 == 0);
    *v = reinterpret_cast<const double*>(q);
    return true;
  }
};

Status Truncated(const char* what) {
  return Status::DataLoss(StrFormat(
      "compact bundle truncated or corrupt inside %s", what));
}

// In-place scoring model over a decoded bundle's payload bytes. Runs each
// algorithm's PredictOne arithmetic over the same f64 values, so its
// predictions are bitwise the trained model's; keeps `owner` alive so
// the bundle bytes outlive the model.
class CompactModel final : public Regressor {
 public:
  struct TreeRef {
    const uint8_t* nodes = nullptr;
    uint32_t count = 0;
  };

  Status Fit(const Matrix&, std::span<const double>) override {
    return Status::FailedPrecondition(
        "compact model bundles are read-only; train a new model instead");
  }

  StatusOr<double> PredictOne(
      std::span<const double> features) const override {
    if (features.size() != nf_) {
      return Status::InvalidArgument("feature count differs from training");
    }
    switch (alg_) {
      case kAlgLr:
      case kAlgLasso:
        // LinearRegression::PredictOne and Lasso::PredictOne.
        return intercept_ + Dot(features, {coef_, nf_});
      case kAlgSvr:
        // Svr::PredictOne.
        return KernelExpansion(kernel_, {sv_, nf_ * num_sv_},
                               {beta_, num_sv_}, bias_, features);
      case kAlgGb: {
        // GradientBoosting::PredictOne over RegressionTree::LeafIndex.
        double sum = init_;
        for (const TreeRef& tree : trees_) {
          uint32_t idx = 0;
          for (;;) {
            const uint8_t* n = tree.nodes + kGbNodeBytes * idx;
            const uint16_t feature = GetU16(n);
            if (feature == kLeafFeature) {
              sum += learning_rate_ * GetF64(n + 14);
              break;
            }
            // Decode validated left/right > idx and < count, so this
            // walk strictly advances and terminates.
            idx = features[feature] <= GetF64(n + 6) ? GetU16(n + 2)
                                                     : GetU16(n + 4);
          }
        }
        return sum;
      }
    }
    return Status::Internal("corrupt compact model state");
  }

  std::string name() const override {
    switch (alg_) {
      case kAlgLr: return "LR";
      case kAlgLasso: return "Lasso";
      case kAlgSvr: return "SVR";
      default: return "GB";
    }
  }

  // Compact models never re-enter training, so the only meaningful clone
  // is another in-place reader over the same (shared-ownership) bytes.
  std::unique_ptr<Regressor> Clone() const override { return CloneFitted(); }
  std::unique_ptr<Regressor> CloneFitted() const override {
    return std::make_unique<CompactModel>(*this);
  }

  bool fitted() const override { return true; }

  // The weights are read in place from the bundle this model keeps alive,
  // so the whole bundle is charged, plus this object's bookkeeping.
  size_t ResidentBytes() const override {
    return sizeof(*this) + bundle_bytes_ + trees_.capacity() * sizeof(TreeRef);
  }

  // Populated by the decoder.
  std::shared_ptr<const void> owner_;
  size_t bundle_bytes_ = 0;
  // The payload bytes (after the header, before the trailer), which a
  // re-encode copies unchanged.
  std::span<const uint8_t> payload_;
  uint8_t alg_ = 0;
  size_t nf_ = 0;
  double intercept_ = 0.0;
  const double* coef_ = nullptr;  // LR/Lasso: [nf].
  // SVR.
  KernelParams kernel_;  // Gamma resolved.
  double bias_ = 0.0;
  size_t num_sv_ = 0;
  const double* beta_ = nullptr;  // [num_sv].
  const double* sv_ = nullptr;    // [num_sv * nf], row-major.
  // GB.
  double init_ = 0.0;
  double learning_rate_ = 0.0;
  std::vector<TreeRef> trees_;
};

void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

uint8_t EncodeFlags(const CompactPipelineHeader& header) {
  uint8_t flags = 0;
  if (header.use_feature_selection) flags |= kFlagFeatureSelection;
  if (header.standardize) flags |= kFlagStandardize;
  if (header.clamp_predictions) flags |= kFlagClampPredictions;
  if (header.include_target_day_context) flags |= kFlagTargetDayContext;
  if (header.include_lag_context) flags |= kFlagLagContext;
  return flags;
}

}  // namespace

StatusOr<std::string> EncodeCompactPipeline(
    const CompactPipelineHeader& header, const StandardScaler* scaler,
    const Regressor& model) {
  if (!model.fitted()) {
    return Status::FailedPrecondition("cannot encode an unfitted model");
  }

  // Resolve algorithm + feature width from the dynamic model type.
  const auto* lr = dynamic_cast<const LinearRegression*>(&model);
  const auto* lasso = dynamic_cast<const Lasso*>(&model);
  const auto* svr = dynamic_cast<const Svr*>(&model);
  const auto* gb = dynamic_cast<const GradientBoosting*>(&model);
  const auto* decoded = dynamic_cast<const CompactModel*>(&model);
  uint8_t alg = 0;
  size_t nf = 0;
  if (decoded != nullptr) {
    alg = decoded->alg_;
    nf = decoded->nf_;
  } else if (lr != nullptr) {
    alg = kAlgLr;
    nf = lr->coefficients().size();
  } else if (lasso != nullptr) {
    alg = kAlgLasso;
    nf = lasso->coefficients().size();
  } else if (svr != nullptr) {
    alg = kAlgSvr;
    nf = svr->num_features();
  } else if (gb != nullptr) {
    alg = kAlgGb;
    nf = gb->num_features();
  } else {
    return Status::Unimplemented(
        "compact format supports LR/Lasso/SVR/GB models, not " +
        model.name());
  }

  if (nf == 0 || nf > kMaxCompactFeatures) {
    return Status::InvalidArgument(
        StrFormat("model feature width %zu outside compact range", nf));
  }
  if (header.lookback_w == 0 || header.lookback_w > kMaxStructural ||
      header.lag_engine_features > kMaxStructural ||
      header.top_k > kMaxStructural ||
      header.selected_lags.size() > kMaxStructural ||
      header.selected_columns.size() > kMaxStructural) {
    return Status::InvalidArgument(
        "pipeline header field outside compact structural caps");
  }
  if (header.standardize) {
    if (scaler == nullptr || !scaler->fitted() ||
        scaler->means().size() != nf || scaler->scales().size() != nf) {
      return Status::InvalidArgument(
          "standardize set but scaler missing or width-mismatched");
    }
  }

  std::string out;
  out.reserve(kFixedHeaderBytes +
              4 * (header.selected_lags.size() +
                   header.selected_columns.size()) +
              (header.standardize ? 16 * nf : 0) + 8 * nf + 64);
  out.append("VUPC", 4);
  PutU16(&out, kCompactVersion);
  out.push_back(static_cast<char>(alg));
  out.push_back(static_cast<char>(EncodeFlags(header)));
  PutU32(&out, header.lookback_w);
  PutU32(&out, header.lag_engine_features);
  PutU32(&out, header.top_k);
  PutU32(&out, static_cast<uint32_t>(nf));
  PutU32(&out, static_cast<uint32_t>(header.selected_lags.size()));
  PutU32(&out, static_cast<uint32_t>(header.selected_columns.size()));
  PutArray<uint32_t>(&out, header.selected_lags);
  PutArray<uint32_t>(&out, header.selected_columns);
  if (header.standardize) {
    PutArray<double>(&out, scaler->means());
    PutArray<double>(&out, scaler->scales());
  }
  PadTo8(&out);

  if (decoded != nullptr) {
    // A decoded model re-encodes from the bundle it owns: its payload was
    // validated when it was decoded and is copied as it is.
    out.append(reinterpret_cast<const char*>(decoded->payload_.data()),
               decoded->payload_.size());
  } else if (lr != nullptr) {
    PutF64(&out, lr->intercept());
    PutArray<double>(&out, lr->coefficients());
  } else if (lasso != nullptr) {
    PutF64(&out, lasso->intercept());
    PutArray<double>(&out, lasso->coefficients());
  } else if (svr != nullptr) {
    const Matrix& support = svr->support_vectors();
    const std::vector<double>& beta = svr->dual_coefficients();
    if (support.rows() != beta.size() || support.cols() != nf) {
      return Status::Internal("SVR support/beta shape mismatch");
    }
    const uint64_t cells = static_cast<uint64_t>(support.rows()) * nf;
    if (cells > kMaxSvCells) {
      return Status::Unimplemented(
          "SVR support-vector matrix too large for compact format");
    }
    const KernelParams& kernel = svr->options().kernel;
    // Resolved (positive) gamma: decode must not re-derive "auto".
    PutF64(&out, kernel.EffectiveGamma(nf));
    PutF64(&out, kernel.coef0);
    PutF64(&out, svr->bias());
    PutU32(&out, static_cast<uint32_t>(kernel.type));
    PutU32(&out, static_cast<uint32_t>(kernel.degree));
    PutU32(&out, static_cast<uint32_t>(support.rows()));
    PutU32(&out, 0);  // Keeps beta and sv 8-byte aligned.
    PutArray<double>(&out, beta);
    PutArray<double>(&out, support.data());  // Row-major, rows x nf.
  } else {
    if (nf >= kLeafFeature) {
      return Status::Unimplemented(
          "GB feature index does not fit the compact u16 node layout");
    }
    const std::vector<RegressionTree>& trees = gb->trees();
    if (trees.size() > kMaxTrees) {
      return Status::Unimplemented("GB ensemble too large for compact format");
    }
    PutF64(&out, gb->initial_prediction());
    PutF64(&out, gb->options().learning_rate);
    PutU32(&out, static_cast<uint32_t>(trees.size()));
    for (const RegressionTree& tree : trees) {
      const std::vector<RegressionTree::NodeState> nodes = tree.GetState();
      if (nodes.empty()) {
        return Status::FailedPrecondition("GB ensemble holds unfitted tree");
      }
      if (nodes.size() > kMaxNodesPerTree) {
        return Status::Unimplemented(
            "GB tree too deep for the compact u16 node layout");
      }
      PutU32(&out, static_cast<uint32_t>(nodes.size()));
      for (size_t i = 0; i < nodes.size(); ++i) {
        const RegressionTree::NodeState& n = nodes[i];
        if (n.feature < 0) {
          PutU16(&out, kLeafFeature);
          PutU16(&out, 0);
          PutU16(&out, 0);
        } else {
          if (static_cast<size_t>(n.feature) >= nf ||
              n.left <= static_cast<int>(i) ||
              n.right <= static_cast<int>(i) ||
              static_cast<size_t>(n.left) >= nodes.size() ||
              static_cast<size_t>(n.right) >= nodes.size()) {
            return Status::Internal("GB tree node state is not well-formed");
          }
          PutU16(&out, static_cast<uint16_t>(n.feature));
          PutU16(&out, static_cast<uint16_t>(n.left));
          PutU16(&out, static_cast<uint16_t>(n.right));
        }
        PutF64(&out, n.threshold);
        PutF64(&out, n.value);
      }
    }
  }

  if (out.size() + kCrc32TrailerBytes > kMaxCompactBytes) {
    return Status::InvalidArgument("encoded compact bundle exceeds size cap");
  }
  AppendCrc32Trailer(&out);
  return out;
}

StatusOr<DecodedCompactPipeline> DecodeCompactPipeline(
    std::span<const uint8_t> bytes, std::shared_ptr<const void> owner) {
  if (bytes.size() > kMaxCompactBytes) {
    return Status::DataLoss("compact bundle implausibly large");
  }
  if (bytes.size() < kMinBundleBytes) {
    return Status::DataLoss("compact bundle truncated (shorter than header)");
  }
  if (std::memcmp(bytes.data(), "VUPC", 4) != 0) {
    return Status::InvalidArgument("not a compact model bundle (bad magic)");
  }
  const uint16_t version = GetU16(bytes.data() + 4);
  if (version == 1) {
    return Status::Unimplemented(
        "compact bundle version 1 (float32 payloads) is no longer served; "
        "re-publish the generation");
  }
  if (version != kCompactVersion) {
    return Status::Unimplemented(
        StrFormat("compact bundle version %u not supported (decoder "
                  "understands %u)",
                  version, kCompactVersion));
  }
  // CRC first: one pass rejects truncation and bit-rot before any
  // structural field is trusted.
  if (!CheckCrc32Trailer(bytes.data(), bytes.size()).has_value()) {
    return Status::DataLoss(
        "compact bundle CRC mismatch: truncated or bit-rotted");
  }

  // Payload arrays are read in place as f64 spans, so the bytes must be
  // 8-byte aligned. Every caller owns a heap buffer, which is.
  if (reinterpret_cast<uintptr_t>(bytes.data()) % alignof(double) != 0) {
    return Status::InvalidArgument(
        "compact bundle bytes are not 8-byte aligned");
  }

  Cursor cur{bytes.data() + 6, bytes.data() + bytes.size() - 4, bytes.data()};
  uint8_t alg = 0;
  uint8_t flags = 0;
  uint32_t lookback_w = 0, lag_engine = 0, top_k = 0;
  uint32_t nf32 = 0, num_lags = 0, num_cols = 0;
  if (!cur.U8(&alg) || !cur.U8(&flags) || !cur.U32(&lookback_w) ||
      !cur.U32(&lag_engine) || !cur.U32(&top_k) || !cur.U32(&nf32) ||
      !cur.U32(&num_lags) || !cur.U32(&num_cols)) {
    return Truncated("fixed header");
  }
  if (alg != kAlgLr && alg != kAlgLasso && alg != kAlgSvr && alg != kAlgGb) {
    return Status::DataLoss(
        StrFormat("compact bundle algorithm code %u unknown", alg));
  }
  if ((flags & ~kKnownFlags) != 0) {
    return Status::DataLoss("compact bundle carries unknown flag bits");
  }
  if (lookback_w == 0 || lookback_w > kMaxStructural ||
      lag_engine > kMaxStructural || top_k > kMaxStructural ||
      num_lags > kMaxStructural || num_cols > kMaxStructural) {
    return Status::DataLoss("compact bundle structural field outside caps");
  }
  if (nf32 == 0 || nf32 > kMaxCompactFeatures) {
    return Status::DataLoss("compact bundle feature width outside caps");
  }
  const size_t nf = nf32;

  DecodedCompactPipeline decoded;
  decoded.header.algorithm = alg;
  decoded.header.lookback_w = lookback_w;
  decoded.header.lag_engine_features = lag_engine;
  decoded.header.top_k = top_k;
  decoded.header.use_feature_selection = (flags & kFlagFeatureSelection) != 0;
  decoded.header.standardize = (flags & kFlagStandardize) != 0;
  decoded.header.clamp_predictions = (flags & kFlagClampPredictions) != 0;
  decoded.header.include_target_day_context =
      (flags & kFlagTargetDayContext) != 0;
  decoded.header.include_lag_context = (flags & kFlagLagContext) != 0;

  decoded.header.selected_lags.reserve(num_lags);
  for (uint32_t i = 0; i < num_lags; ++i) {
    uint32_t lag = 0;
    if (!cur.U32(&lag)) return Truncated("selected lags");
    decoded.header.selected_lags.push_back(lag);
  }
  decoded.header.selected_columns.reserve(num_cols);
  for (uint32_t i = 0; i < num_cols; ++i) {
    uint32_t col = 0;
    if (!cur.U32(&col)) return Truncated("selected columns");
    decoded.header.selected_columns.push_back(col);
  }

  if (decoded.header.standardize) {
    std::vector<double> means(nf), scales(nf);
    for (size_t i = 0; i < nf; ++i) {
      if (!cur.F64(&means[i])) return Truncated("scaler means");
    }
    for (size_t i = 0; i < nf; ++i) {
      if (!cur.F64(&scales[i])) return Truncated("scaler scales");
    }
    for (size_t i = 0; i < nf; ++i) {
      if (!std::isfinite(means[i]) || !std::isfinite(scales[i]) ||
          scales[i] <= 0.0) {
        return Status::DataLoss("compact bundle scaler state is invalid");
      }
    }
    decoded.scaler = StandardScaler::FromState(std::move(means),
                                               std::move(scales));
  }

  // Zero padding to the f64-aligned payload.
  while ((cur.p - cur.base) % 8 != 0) {
    uint8_t pad = 0;
    if (!cur.U8(&pad)) return Truncated("alignment padding");
    if (pad != 0) {
      return Status::DataLoss("compact bundle padding bytes are nonzero");
    }
  }

  auto model = std::make_unique<CompactModel>();
  model->owner_ = std::move(owner);
  model->bundle_bytes_ = bytes.size();
  model->payload_ = {cur.p, static_cast<size_t>(cur.end - cur.p)};
  model->alg_ = alg;
  model->nf_ = nf;

  switch (alg) {
    case kAlgLr:
    case kAlgLasso:
      if (!cur.F64(&model->intercept_) || !cur.F64s(nf, &model->coef_)) {
        return Truncated("linear weights");
      }
      break;
    case kAlgSvr: {
      uint32_t kernel_type = 0, degree = 0, num_sv = 0, zero = 0;
      if (!cur.F64(&model->kernel_.gamma) || !cur.F64(&model->kernel_.coef0) ||
          !cur.F64(&model->bias_) || !cur.U32(&kernel_type) ||
          !cur.U32(&degree) || !cur.U32(&num_sv) || !cur.U32(&zero)) {
        return Truncated("SVR header");
      }
      if (kernel_type > static_cast<uint32_t>(KernelType::kPolynomial) ||
          degree > kMaxStructural || zero != 0) {
        return Status::DataLoss("compact bundle SVR kernel is invalid");
      }
      if (!std::isfinite(model->kernel_.gamma) || model->kernel_.gamma <= 0.0) {
        return Status::DataLoss("compact bundle SVR gamma not resolved");
      }
      const uint64_t cells = static_cast<uint64_t>(num_sv) * nf;
      if (cells > kMaxSvCells) {
        return Status::DataLoss("compact bundle SVR matrix outside caps");
      }
      if (!cur.F64s(num_sv, &model->beta_) ||
          !cur.F64s(static_cast<size_t>(cells), &model->sv_)) {
        return Truncated("SVR vectors");
      }
      model->kernel_.type = static_cast<KernelType>(kernel_type);
      model->kernel_.degree = static_cast<int>(degree);
      model->num_sv_ = num_sv;
      break;
    }
    case kAlgGb: {
      uint32_t num_trees = 0;
      if (!cur.F64(&model->init_) || !cur.F64(&model->learning_rate_) ||
          !cur.U32(&num_trees)) {
        return Truncated("GB header");
      }
      if (num_trees > kMaxTrees) {
        return Status::DataLoss("compact bundle GB ensemble outside caps");
      }
      model->trees_.reserve(num_trees);
      for (uint32_t t = 0; t < num_trees; ++t) {
        uint32_t num_nodes = 0;
        if (!cur.U32(&num_nodes)) return Truncated("GB tree header");
        if (num_nodes == 0 || num_nodes > kMaxNodesPerTree) {
          return Status::DataLoss("compact bundle GB tree outside caps");
        }
        const uint8_t* nodes;
        if (!cur.Take(kGbNodeBytes * static_cast<size_t>(num_nodes),
                      &nodes)) {
          return Truncated("GB tree nodes");
        }
        // Internal nodes must point strictly forward so PredictOne's walk
        // terminates on any accepted bundle; leaves must look like the
        // encoder's (zero children).
        for (uint32_t i = 0; i < num_nodes; ++i) {
          const uint8_t* n = nodes + kGbNodeBytes * i;
          const uint16_t feature = GetU16(n);
          const uint16_t left = GetU16(n + 2);
          const uint16_t right = GetU16(n + 4);
          if (feature == kLeafFeature) {
            if (left != 0 || right != 0) {
              return Status::DataLoss("compact bundle GB leaf has children");
            }
          } else if (feature >= nf || left <= i || right <= i ||
                     left >= num_nodes || right >= num_nodes) {
            return Status::DataLoss(
                "compact bundle GB node topology is invalid");
          }
        }
        model->trees_.push_back(CompactModel::TreeRef{nodes, num_nodes});
      }
      break;
    }
  }

  if (cur.p != cur.end) {
    return Status::DataLoss("compact bundle carries trailing bytes");
  }
  decoded.model = std::move(model);
  return decoded;
}

}  // namespace vup
