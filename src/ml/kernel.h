#ifndef VUPRED_ML_KERNEL_H_
#define VUPRED_ML_KERNEL_H_

#include <span>
#include <string_view>

#include "common/statusor.h"
#include "linalg/matrix.h"

namespace vup {

/// Kernel families supported by the SVR. The paper's configuration is RBF.
enum class KernelType : int {
  kRbf = 0,
  kLinear = 1,
  kPolynomial = 2,
};

std::string_view KernelTypeToString(KernelType t);

/// Kernel hyper-parameters.
///   RBF:        k(a,b) = exp(-gamma * ||a-b||^2)
///   Linear:     k(a,b) = a.b
///   Polynomial: k(a,b) = (gamma * a.b + coef0)^degree
/// gamma <= 0 means "auto": 1 / num_features, resolved at evaluation time
/// (the scikit-learn 'auto' convention; on standardized features this keeps
/// RBF distances in a useful range).
struct KernelParams {
  KernelType type = KernelType::kRbf;
  double gamma = -1.0;  // <= 0 -> 1 / num_features.
  double coef0 = 0.0;
  int degree = 3;

  /// Gamma actually used for inputs with `num_features` dimensions.
  double EffectiveGamma(size_t num_features) const;
};

/// k(a, b); sizes must match (checked).
double KernelFunction(const KernelParams& params, std::span<const double> a,
                      std::span<const double> b);

/// Full Gram matrix K_ij = k(row_i, row_j), symmetric. Every entry is
/// bitwise KernelFunction(params, row_i, row_j). With `min_cols` above
/// x.rows(), each row carries zero entries up to that width, so a solver
/// can read whole lane blocks of a row in place.
Matrix KernelMatrix(const KernelParams& params, const Matrix& x,
                    size_t min_cols = 0);

}  // namespace vup

#endif  // VUPRED_ML_KERNEL_H_
