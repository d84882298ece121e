#ifndef VUPRED_ML_SERIALIZE_H_
#define VUPRED_ML_SERIALIZE_H_

#include <iosfwd>
#include <memory>

#include "common/statusor.h"
#include "ml/logistic_regression.h"
#include "ml/model.h"
#include "ml/scaler.h"

namespace vup {

/// Text serialization for trained models, so a per-vehicle model trained
/// overnight can be stored and applied at the edge without retraining.
///
/// Format: a line-oriented `vupred-model v1` block -- human-inspectable,
/// diff-able, platform-independent (doubles are byte-identical to %.17g,
/// rendered with to_chars, so they round-trip exactly). The
/// loader validates structure and sizes and returns InvalidArgument on any
/// malformed input; it never aborts on bad data.
///
/// Supported: LinearRegression, Lasso, SVR, RegressionTree,
/// GradientBoosting (via the Regressor entry points) plus
/// LogisticRegression and StandardScaler (dedicated entry points).
/// Baselines have no state and need no persistence.

/// Writes `model` (must be fitted). Unimplemented for unknown model names.
Status SaveRegressor(const Regressor& model, std::ostream& os);

/// Reads back any model written by SaveRegressor.
StatusOr<std::unique_ptr<Regressor>> LoadRegressor(std::istream& is);

Status SaveScaler(const StandardScaler& scaler, std::ostream& os);
StatusOr<StandardScaler> LoadScaler(std::istream& is);

Status SaveLogistic(const LogisticRegression& model, std::ostream& os);
StatusOr<LogisticRegression> LoadLogistic(std::istream& is);

}  // namespace vup

#endif  // VUPRED_ML_SERIALIZE_H_
