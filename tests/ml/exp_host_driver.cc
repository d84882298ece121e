// Prints hashes of an RBF Gram matrix, of an SVR's predictions, of a
// cubic polynomial-kernel Gram matrix and of a logistic regression's fit
// and probabilities, all from fixed inputs that no libm function touches,
// and of glibc's own std::exp over fixed arguments. exp_host_test.sh
// compares the output under two CPU-feature settings of glibc: every line
// but the last must not move, and the last shows whether the setting
// changed glibc's exp.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "linalg/matrix.h"
#include "ml/kernel.h"
#include "ml/logistic_regression.h"
#include "ml/svr.h"

namespace {

/// FNV-1a over the bytes of `n` doubles.
uint64_t Hash(const double* p, size_t n, uint64_t h = 0xcbf29ce484222325) {
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3;
  }
  return h;
}

}  // namespace

int main() {
  // The walk-forward design's shape: n = 140 windows of d = 89 features.
  // Uniform draws only: std::normal_distribution calls log.
  constexpr size_t kRows = 140;
  constexpr size_t kCols = 89;
  std::mt19937_64 engine(2024);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  vup::Matrix x(kRows, kCols);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kCols; ++c) x(r, c) = uniform(engine);
  }
  std::vector<double> y(kRows);
  for (double& v : y) v = 4.0 * uniform(engine);

  const vup::Matrix gram = vup::KernelMatrix(vup::KernelParams{}, x);
  uint64_t gram_hash = 0xcbf29ce484222325;
  for (size_t r = 0; r < kRows; ++r) {
    gram_hash = Hash(gram.Row(r).data(), kRows, gram_hash);
  }

  vup::Svr svr;
  if (!svr.Fit(x, y).ok()) {
    std::fprintf(stderr, "fit failed\n");
    return 1;
  }
  std::vector<double> predictions;
  std::vector<double> query(kCols);
  for (int q = 0; q < 64; ++q) {
    for (double& v : query) v = uniform(engine);
    predictions.push_back(svr.PredictOne(query).value());
  }

  // Cubic polynomial kernel: 140 x 140 powers of gamma * a.b + coef0.
  vup::KernelParams poly;
  poly.type = vup::KernelType::kPolynomial;
  poly.coef0 = 1.0;
  poly.degree = 3;
  const vup::Matrix poly_gram = vup::KernelMatrix(poly, x);
  uint64_t poly_hash = 0xcbf29ce484222325;
  for (size_t r = 0; r < kRows; ++r) {
    poly_hash = Hash(poly_gram.Row(r).data(), kRows, poly_hash);
  }

  // Logistic regression on labels of a noisy linear rule: every Newton
  // step and probability goes through Sigmoid.
  std::vector<int> labels(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    labels[r] = x(r, 0) + 0.5 * x(r, 1) + 0.5 * uniform(engine) > 0.0;
  }
  vup::LogisticRegression logistic;
  if (!logistic.Fit(x, labels).ok()) {
    std::fprintf(stderr, "logistic fit failed\n");
    return 1;
  }
  std::vector<double> logistic_out(logistic.coefficients().begin(),
                                   logistic.coefficients().end());
  logistic_out.push_back(logistic.intercept());
  for (size_t r = 0; r < kRows; ++r) {
    logistic_out.push_back(logistic.PredictProbability(x.Row(r)).value());
  }

  // glibc's exp over the kernel's argument range.
  std::vector<double> libm(100000);
  for (size_t i = 0; i < libm.size(); ++i) {
    libm[i] = std::exp(-50.0 * static_cast<double>(i) /
                       static_cast<double>(libm.size()));
  }

  std::printf("gram %016llx\n",
              static_cast<unsigned long long>(gram_hash));
  std::printf("predict %016llx\n",
              static_cast<unsigned long long>(
                  Hash(predictions.data(), predictions.size())));
  std::printf("poly %016llx\n",
              static_cast<unsigned long long>(poly_hash));
  std::printf("logistic %016llx\n",
              static_cast<unsigned long long>(
                  Hash(logistic_out.data(), logistic_out.size())));
  std::printf("libm %016llx\n", static_cast<unsigned long long>(
                                    Hash(libm.data(), libm.size())));
  return 0;
}
