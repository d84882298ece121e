#ifndef VUPRED_ML_COMPACT_H_
#define VUPRED_ML_COMPACT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "ml/model.h"
#include "ml/scaler.h"

namespace vup {

/// Compact binary model bundle, `vupc v2`: the one on-disk model format
/// of a published generation. Fixed layout, read with one read and scored
/// in place, sized for registries holding 10^5..10^6 per-vehicle models.
///
/// Layout (little-endian, packed; offsets in bytes):
///
///   0   magic "VUPC"
///   4   u16 version (2)
///   6   u8  algorithm code (2=LR, 3=Lasso, 4=SVR, 5=GB -- the integer
///       values of vup::Algorithm)
///   7   u8  flags (bit0 use_feature_selection, bit1 standardize,
///       bit2 clamp_predictions, bit3 include_target_day_context,
///       bit4 include_lag_context; other bits must be zero)
///   8   u32 lookback_w        20  u32 num_features
///   12  u32 lag_engine_features   24  u32 num_selected_lags
///   16  u32 top_k                 28  u32 num_selected_columns
///   32  u32 selected_lags[], u32 selected_columns[]
///       [standardize] f64 means[nf], f64 scales[nf]
///       zero padding to an 8-byte boundary
///       payload (per algorithm, below)
///   end-4  u32 CRC-32 (IEEE, as the MANIFEST and sidecars) over every
///          preceding byte
///
/// Payloads store every weight as f64, so a decoded model predicts
/// bitwise what the trained one does (DESIGN.md section 15):
///   LR, Lasso: f64 intercept, f64 coef[nf]
///   SVR:   f64 gamma (resolved, > 0), f64 coef0, f64 bias, u32 kernel
///          type, u32 degree, u32 num_sv, u32 zero, f64 beta[num_sv],
///          f64 sv[num_sv * nf] row-major
///   GB:    f64 init, f64 learning_rate, u32 num_trees, then per tree:
///          u32 num_nodes + packed 22-byte nodes
///          {u16 feature (0xFFFF = leaf), u16 left, u16 right,
///           f64 threshold, f64 value}; internal nodes must point strictly
///          forward (left/right > own index), so traversal terminates on
///          any bundle that passes validation
///
/// The decoder treats every byte as hostile: size is capped before any
/// allocation, the CRC is verified before the structure is walked, and
/// every count is bounds-checked against both the buffer and hard
/// structural caps. Truncation and bit-rot surface as DataLoss (a wrong
/// magic as InvalidArgument, any other version as Unimplemented) -- never
/// UB, a crash, or an attacker-sized allocation. A `vupc v1` bundle
/// (float32 Lasso/SVR/GB payloads, written before v2) is Unimplemented
/// with a message that says to re-publish; it is never decoded.
///
/// A decoded model *scores in place*: coefficient, dual and support-vector
/// arrays are aligned f64 spans over the bundle bytes, fed to the same
/// Dot()/KernelFunction() the trained models call, never copied into
/// per-model arrays. Only O(num_trees) bookkeeping and the scaler vectors
/// are materialized. The model's ResidentBytes() charges the whole bundle
/// it keeps alive.

inline constexpr uint16_t kCompactVersion = 2;

/// Hard cap on a compact bundle's total size, checked before anything
/// else: 64 MiB holds ~8 x 10^6 f64 SVR cells.
inline constexpr size_t kMaxCompactBytes = 64ull << 20;

/// Pipeline-shape fields of a compact bundle -- the ml-layer mirror of
/// the ForecasterConfig subset a saved pipeline keeps. The core layer
/// (VehicleForecaster::SaveCompact/LoadCompact) maps between the two;
/// this struct keeps the codec free of core dependencies.
struct CompactPipelineHeader {
  int algorithm = 0;  // vup::Algorithm integer value; ML algorithms only.
  uint32_t lookback_w = 0;
  uint32_t lag_engine_features = 0;
  uint32_t top_k = 0;
  bool use_feature_selection = false;
  bool standardize = false;
  bool clamp_predictions = false;
  bool include_target_day_context = false;
  bool include_lag_context = false;
  std::vector<uint32_t> selected_lags;
  std::vector<uint32_t> selected_columns;
};

/// A decoded compact bundle: the pipeline header, the materialized scaler
/// (fitted iff header.standardize) and the in-place scoring model.
struct DecodedCompactPipeline {
  CompactPipelineHeader header;
  StandardScaler scaler;
  std::unique_ptr<Regressor> model;
};

/// Serializes a fitted model (LinearRegression, Lasso, Svr or
/// GradientBoosting -- matched by dynamic type -- or a model decoded from
/// a bundle, whose payload is copied from that bundle) plus its pipeline
/// header and optional scaler into a compact bundle. Re-encoding a decoded
/// pipeline with its decoded header and scaler gives back the same
/// bytes. `scaler` must be fitted with the model's feature width when
/// header.standardize is set (and is ignored otherwise). Unimplemented
/// for model shapes the packed format cannot hold (a GB ensemble wider
/// than 65534 features or deeper than 65535 nodes per tree);
/// FailedPrecondition for an unfitted model.
StatusOr<std::string> EncodeCompactPipeline(
    const CompactPipelineHeader& header, const StandardScaler* scaler,
    const Regressor& model);

/// Validates and decodes a compact bundle. The returned model keeps
/// `owner` alive and reads `bytes` in place, so `bytes` must stay valid
/// as long as `owner` is held (pass the heap buffer that backs them).
/// `bytes` must be 8-byte aligned, as every heap buffer is: misaligned
/// bytes are InvalidArgument. See the format comment for the rest of the
/// error contract.
StatusOr<DecodedCompactPipeline> DecodeCompactPipeline(
    std::span<const uint8_t> bytes, std::shared_ptr<const void> owner);

}  // namespace vup

#endif  // VUPRED_ML_COMPACT_H_
