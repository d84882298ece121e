#include "ml/serialize.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/string_util.h"
#include "ml/gradient_boosting.h"
#include "ml/lasso.h"
#include "ml/linear_regression.h"
#include "ml/svr.h"
#include "ml/tree.h"

namespace vup {

namespace {

constexpr const char* kMagic = "vupred-model v1";

/// Upper bounds on deserialized structure sizes. Streams are untrusted
/// (truncated files, bit rot, hostile input): a corrupt count must produce
/// an InvalidArgument, never a multi-gigabyte allocation that turns into
/// std::bad_alloc. The caps sit far above anything the training side
/// produces (thousands of support vectors / nodes at most).
constexpr long long kMaxCount = 1 << 20;         // Rows, nodes, trees.
constexpr long long kMaxMatrixCells = 1 << 26;   // num_sv * num_features.

Status CheckCount(const char* what, long long value, long long max) {
  if (value < 0 || value > max) {
    return Status::InvalidArgument(
        StrFormat("%s out of range: %lld", what, value));
  }
  return Status::OK();
}

void WriteVector(std::ostream& os, const char* key,
                 std::span<const double> v) {
  os << key << " " << v.size();
  for (double x : v) {
    os << " ";
    WriteDouble17(os, x);
  }
  os << "\n";
}

/// Line-oriented reader with typed field extraction.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  /// Reads the next non-empty line and splits it on spaces.
  StatusOr<std::vector<std::string>> NextLine() {
    std::string line;
    while (std::getline(is_, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (Trim(line).empty()) continue;
      std::vector<std::string> tokens;
      for (const std::string& t : Split(std::string(Trim(line)), ' ')) {
        if (!t.empty()) tokens.push_back(t);
      }
      return tokens;
    }
    return Status::InvalidArgument("unexpected end of model stream");
  }

  /// Next line must start with `key`; returns the remaining tokens.
  StatusOr<std::vector<std::string>> Expect(std::string_view key) {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> tokens, NextLine());
    if (tokens.empty() || tokens[0] != key) {
      return Status::InvalidArgument(
          "expected '" + std::string(key) + "', got '" +
          (tokens.empty() ? "" : tokens[0]) + "'");
    }
    tokens.erase(tokens.begin());
    return tokens;
  }

  StatusOr<double> ExpectDouble(std::string_view key) {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> rest, Expect(key));
    if (rest.size() != 1) {
      return Status::InvalidArgument("expected one value for '" +
                                     std::string(key) + "'");
    }
    return ParseDouble(rest[0]);
  }

  StatusOr<long long> ExpectInt(std::string_view key) {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> rest, Expect(key));
    if (rest.size() != 1) {
      return Status::InvalidArgument("expected one value for '" +
                                     std::string(key) + "'");
    }
    return ParseInt(rest[0]);
  }

  StatusOr<std::vector<double>> ExpectVector(std::string_view key) {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> rest, Expect(key));
    if (rest.empty()) {
      return Status::InvalidArgument("missing count for '" +
                                     std::string(key) + "'");
    }
    VUP_ASSIGN_OR_RETURN(long long count, ParseInt(rest[0]));
    if (count < 0 ||
        static_cast<size_t>(count) != rest.size() - 1) {
      return Status::InvalidArgument("vector size mismatch for '" +
                                     std::string(key) + "'");
    }
    std::vector<double> out;
    out.reserve(static_cast<size_t>(count));
    for (size_t i = 1; i < rest.size(); ++i) {
      VUP_ASSIGN_OR_RETURN(double v, ParseDouble(rest[i]));
      out.push_back(v);
    }
    return out;
  }

 private:
  std::istream& is_;
};

Status RequireFitted(const Regressor& model) {
  if (!model.fitted()) {
    return Status::FailedPrecondition("cannot serialize an unfitted model");
  }
  return Status::OK();
}

// ---- Per-type writers -------------------------------------------------

void SaveLinearBody(const LinearRegression& m, std::ostream& os) {
  os << "fit_intercept " << (m.options().fit_intercept ? 1 : 0) << "\n";
  os << "ridge ";
  WriteDouble17(os, m.options().ridge);
  os << "\nintercept ";
  WriteDouble17(os, m.intercept());
  os << "\n";
  WriteVector(os, "coef", m.coefficients());
}

void SaveLassoBody(const Lasso& m, std::ostream& os) {
  os << "alpha ";
  WriteDouble17(os, m.options().alpha);
  os << "\nfit_intercept " << (m.options().fit_intercept ? 1 : 0) << "\n";
  os << "intercept ";
  WriteDouble17(os, m.intercept());
  os << "\n";
  WriteVector(os, "coef", m.coefficients());
}

void SaveSvrBody(const Svr& m, std::ostream& os) {
  const Svr::Options& o = m.options();
  os << "c ";
  WriteDouble17(os, o.c);
  os << "\nepsilon ";
  WriteDouble17(os, o.epsilon);
  os << "\nkernel " << KernelTypeToString(o.kernel.type) << " ";
  WriteDouble17(os, o.kernel.gamma);
  os << " ";
  WriteDouble17(os, o.kernel.coef0);
  os << " " << o.kernel.degree << "\n";
  os << "num_features " << m.num_features() << "\n";
  os << "bias ";
  WriteDouble17(os, m.bias());
  os << "\nnum_sv " << m.support_vectors().rows() << "\n";
  for (size_t r = 0; r < m.support_vectors().rows(); ++r) {
    os << "sv ";
    WriteDouble17(os, m.dual_coefficients()[r]);
    for (double v : m.support_vectors().Row(r)) {
      os << " ";
      WriteDouble17(os, v);
    }
    os << "\n";
  }
}

void SaveTreeBody(const RegressionTree& m, std::ostream& os) {
  const RegressionTree::Options& o = m.options();
  os << "max_depth " << o.max_depth << "\n";
  os << "min_samples_split " << o.min_samples_split << "\n";
  os << "min_samples_leaf " << o.min_samples_leaf << "\n";
  os << "num_features " << m.num_features() << "\n";
  std::vector<RegressionTree::NodeState> nodes = m.GetState();
  os << "num_nodes " << nodes.size() << "\n";
  for (const RegressionTree::NodeState& n : nodes) {
    os << "node " << n.feature << " ";
    WriteDouble17(os, n.threshold);
    os << " " << n.left << " " << n.right << " ";
    WriteDouble17(os, n.value);
    os << "\n";
  }
}

void SaveGbBody(const GradientBoosting& m, std::ostream& os) {
  const GradientBoosting::Options& o = m.options();
  os << "learning_rate ";
  WriteDouble17(os, o.learning_rate);
  os << "\nloss " << (o.loss == GbLoss::kLeastSquares ? "ls" : "lad")
     << "\n";
  os << "num_features " << m.num_features() << "\n";
  os << "init ";
  WriteDouble17(os, m.initial_prediction());
  os << "\nnum_trees " << m.trees().size() << "\n";
  for (const RegressionTree& tree : m.trees()) {
    SaveTreeBody(tree, os);
  }
}

// ---- Per-type readers -------------------------------------------------

StatusOr<std::unique_ptr<Regressor>> LoadLinearBody(Reader& r) {
  LinearRegression::Options o;
  VUP_ASSIGN_OR_RETURN(long long fi, r.ExpectInt("fit_intercept"));
  o.fit_intercept = fi != 0;
  VUP_ASSIGN_OR_RETURN(o.ridge, r.ExpectDouble("ridge"));
  VUP_ASSIGN_OR_RETURN(double intercept, r.ExpectDouble("intercept"));
  VUP_ASSIGN_OR_RETURN(std::vector<double> coef, r.ExpectVector("coef"));
  return std::unique_ptr<Regressor>(new LinearRegression(
      LinearRegression::FromState(o, std::move(coef), intercept)));
}

StatusOr<std::unique_ptr<Regressor>> LoadLassoBody(Reader& r) {
  Lasso::Options o;
  VUP_ASSIGN_OR_RETURN(o.alpha, r.ExpectDouble("alpha"));
  VUP_ASSIGN_OR_RETURN(long long fi, r.ExpectInt("fit_intercept"));
  o.fit_intercept = fi != 0;
  VUP_ASSIGN_OR_RETURN(double intercept, r.ExpectDouble("intercept"));
  VUP_ASSIGN_OR_RETURN(std::vector<double> coef, r.ExpectVector("coef"));
  return std::unique_ptr<Regressor>(
      new Lasso(Lasso::FromState(o, std::move(coef), intercept)));
}

StatusOr<std::unique_ptr<Regressor>> LoadSvrBody(Reader& r) {
  Svr::Options o;
  VUP_ASSIGN_OR_RETURN(o.c, r.ExpectDouble("c"));
  VUP_ASSIGN_OR_RETURN(o.epsilon, r.ExpectDouble("epsilon"));
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> kernel,
                       r.Expect("kernel"));
  if (kernel.size() != 4) {
    return Status::InvalidArgument("malformed kernel line");
  }
  if (kernel[0] == "rbf") {
    o.kernel.type = KernelType::kRbf;
  } else if (kernel[0] == "linear") {
    o.kernel.type = KernelType::kLinear;
  } else if (kernel[0] == "poly") {
    o.kernel.type = KernelType::kPolynomial;
  } else {
    return Status::InvalidArgument("unknown kernel: " + kernel[0]);
  }
  VUP_ASSIGN_OR_RETURN(o.kernel.gamma, ParseDouble(kernel[1]));
  VUP_ASSIGN_OR_RETURN(o.kernel.coef0, ParseDouble(kernel[2]));
  VUP_ASSIGN_OR_RETURN(long long degree, ParseInt(kernel[3]));
  o.kernel.degree = static_cast<int>(degree);

  VUP_ASSIGN_OR_RETURN(long long num_features, r.ExpectInt("num_features"));
  VUP_ASSIGN_OR_RETURN(double bias, r.ExpectDouble("bias"));
  VUP_ASSIGN_OR_RETURN(long long num_sv, r.ExpectInt("num_sv"));
  if (num_features <= 0 || num_sv < 0) {
    return Status::InvalidArgument("invalid SVR dimensions");
  }
  VUP_RETURN_IF_ERROR(CheckCount("num_features", num_features, kMaxCount));
  VUP_RETURN_IF_ERROR(CheckCount("num_sv", num_sv, kMaxCount));
  if (num_sv * num_features > kMaxMatrixCells) {
    return Status::InvalidArgument("support-vector matrix too large");
  }
  Matrix support(static_cast<size_t>(num_sv),
                 static_cast<size_t>(num_features));
  std::vector<double> beta;
  beta.reserve(static_cast<size_t>(num_sv));
  for (long long i = 0; i < num_sv; ++i) {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> sv, r.Expect("sv"));
    if (sv.size() != static_cast<size_t>(num_features) + 1) {
      return Status::InvalidArgument("support vector size mismatch");
    }
    VUP_ASSIGN_OR_RETURN(double b, ParseDouble(sv[0]));
    beta.push_back(b);
    for (long long c = 0; c < num_features; ++c) {
      VUP_ASSIGN_OR_RETURN(double v,
                           ParseDouble(sv[static_cast<size_t>(c) + 1]));
      support(static_cast<size_t>(i), static_cast<size_t>(c)) = v;
    }
  }
  return std::unique_ptr<Regressor>(new Svr(
      Svr::FromState(o, std::move(support), std::move(beta), bias,
                     static_cast<size_t>(num_features))));
}

StatusOr<RegressionTree> LoadTreeFromBody(Reader& r) {
  RegressionTree::Options o;
  VUP_ASSIGN_OR_RETURN(long long max_depth, r.ExpectInt("max_depth"));
  o.max_depth = static_cast<int>(max_depth);
  VUP_ASSIGN_OR_RETURN(long long mss, r.ExpectInt("min_samples_split"));
  o.min_samples_split = static_cast<size_t>(mss);
  VUP_ASSIGN_OR_RETURN(long long msl, r.ExpectInt("min_samples_leaf"));
  o.min_samples_leaf = static_cast<size_t>(msl);
  VUP_ASSIGN_OR_RETURN(long long num_features, r.ExpectInt("num_features"));
  VUP_ASSIGN_OR_RETURN(long long num_nodes, r.ExpectInt("num_nodes"));
  if (num_features < 0 || num_nodes < 0) {
    return Status::InvalidArgument("invalid tree dimensions");
  }
  VUP_RETURN_IF_ERROR(CheckCount("num_features", num_features, kMaxCount));
  VUP_RETURN_IF_ERROR(CheckCount("num_nodes", num_nodes, kMaxCount));
  std::vector<RegressionTree::NodeState> nodes;
  nodes.reserve(static_cast<size_t>(num_nodes));
  for (long long i = 0; i < num_nodes; ++i) {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> n, r.Expect("node"));
    if (n.size() != 5) {
      return Status::InvalidArgument("malformed node line");
    }
    RegressionTree::NodeState node;
    VUP_ASSIGN_OR_RETURN(long long feature, ParseInt(n[0]));
    node.feature = static_cast<int>(feature);
    VUP_ASSIGN_OR_RETURN(node.threshold, ParseDouble(n[1]));
    VUP_ASSIGN_OR_RETURN(long long left, ParseInt(n[2]));
    node.left = static_cast<int>(left);
    VUP_ASSIGN_OR_RETURN(long long right, ParseInt(n[3]));
    node.right = static_cast<int>(right);
    VUP_ASSIGN_OR_RETURN(node.value, ParseDouble(n[4]));
    // Structural validation on internal nodes: the split feature must be
    // a real column (PredictOne indexes the feature row unchecked) and
    // children must point strictly forward inside the node array -- the
    // layout Grow emits -- so a corrupt stream can neither read out of
    // bounds nor send traversal into a cycle.
    if (node.feature >= 0) {
      if (feature >= num_features) {
        return Status::InvalidArgument("node split feature out of range");
      }
      if (node.left <= i || node.right <= i || node.left >= num_nodes ||
          node.right >= num_nodes) {
        return Status::InvalidArgument("node child index out of range");
      }
    }
    nodes.push_back(node);
  }
  return RegressionTree::FromState(o, nodes,
                                   static_cast<size_t>(num_features));
}

StatusOr<std::unique_ptr<Regressor>> LoadTreeBody(Reader& r) {
  VUP_ASSIGN_OR_RETURN(RegressionTree tree, LoadTreeFromBody(r));
  return std::unique_ptr<Regressor>(new RegressionTree(std::move(tree)));
}

StatusOr<std::unique_ptr<Regressor>> LoadGbBody(Reader& r) {
  GradientBoosting::Options o;
  VUP_ASSIGN_OR_RETURN(o.learning_rate, r.ExpectDouble("learning_rate"));
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> loss, r.Expect("loss"));
  if (loss.size() != 1 || (loss[0] != "ls" && loss[0] != "lad")) {
    return Status::InvalidArgument("malformed loss line");
  }
  o.loss = loss[0] == "ls" ? GbLoss::kLeastSquares
                           : GbLoss::kLeastAbsoluteDeviation;
  VUP_ASSIGN_OR_RETURN(long long num_features, r.ExpectInt("num_features"));
  VUP_ASSIGN_OR_RETURN(double init, r.ExpectDouble("init"));
  VUP_ASSIGN_OR_RETURN(long long num_trees, r.ExpectInt("num_trees"));
  if (num_features <= 0 || num_trees < 0) {
    return Status::InvalidArgument("invalid ensemble dimensions");
  }
  VUP_RETURN_IF_ERROR(CheckCount("num_features", num_features, kMaxCount));
  VUP_RETURN_IF_ERROR(CheckCount("num_trees", num_trees, kMaxCount));
  o.n_estimators = static_cast<size_t>(num_trees);
  std::vector<RegressionTree> trees;
  trees.reserve(static_cast<size_t>(num_trees));
  for (long long i = 0; i < num_trees; ++i) {
    VUP_ASSIGN_OR_RETURN(RegressionTree tree, LoadTreeFromBody(r));
    trees.push_back(std::move(tree));
  }
  return std::unique_ptr<Regressor>(
      new GradientBoosting(GradientBoosting::FromState(
          o, init, std::move(trees), static_cast<size_t>(num_features))));
}

}  // namespace

Status SaveRegressor(const Regressor& model, std::ostream& os) {
  VUP_RETURN_IF_ERROR(RequireFitted(model));
  const std::string name = model.name();
  os << kMagic << "\n";
  os << "type " << name << "\n";
  if (name == "LR") {
    SaveLinearBody(static_cast<const LinearRegression&>(model), os);
  } else if (name == "Lasso") {
    SaveLassoBody(static_cast<const Lasso&>(model), os);
  } else if (name == "SVR") {
    SaveSvrBody(static_cast<const Svr&>(model), os);
  } else if (name == "Tree") {
    SaveTreeBody(static_cast<const RegressionTree&>(model), os);
  } else if (name == "GB") {
    SaveGbBody(static_cast<const GradientBoosting&>(model), os);
  } else {
    return Status::Unimplemented("no serializer for model '" + name + "'");
  }
  os << "end\n";
  if (!os) return Status::DataLoss("stream write failed");
  return Status::OK();
}

StatusOr<std::unique_ptr<Regressor>> LoadRegressor(std::istream& is) {
  Reader r(is);
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> magic, r.NextLine());
  if (Join(magic, " ") != kMagic) {
    return Status::InvalidArgument("not a vupred-model v1 stream");
  }
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> type, r.Expect("type"));
  if (type.size() != 1) {
    return Status::InvalidArgument("malformed type line");
  }
  StatusOr<std::unique_ptr<Regressor>> model =
      Status::Unimplemented("no loader for model '" + type[0] + "'");
  if (type[0] == "LR") {
    model = LoadLinearBody(r);
  } else if (type[0] == "Lasso") {
    model = LoadLassoBody(r);
  } else if (type[0] == "SVR") {
    model = LoadSvrBody(r);
  } else if (type[0] == "Tree") {
    model = LoadTreeBody(r);
  } else if (type[0] == "GB") {
    model = LoadGbBody(r);
  }
  VUP_RETURN_IF_ERROR(model.status());
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> end, r.NextLine());
  if (end.size() != 1 || end[0] != "end") {
    return Status::InvalidArgument("missing end marker");
  }
  return model;
}

Status SaveScaler(const StandardScaler& scaler, std::ostream& os) {
  if (!scaler.fitted()) {
    return Status::FailedPrecondition("cannot serialize an unfitted scaler");
  }
  os << kMagic << "\n";
  os << "type Scaler\n";
  WriteVector(os, "means", scaler.means());
  WriteVector(os, "scales", scaler.scales());
  os << "end\n";
  if (!os) return Status::DataLoss("stream write failed");
  return Status::OK();
}

StatusOr<StandardScaler> LoadScaler(std::istream& is) {
  Reader r(is);
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> magic, r.NextLine());
  if (Join(magic, " ") != kMagic) {
    return Status::InvalidArgument("not a vupred-model v1 stream");
  }
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> type, r.Expect("type"));
  if (type.size() != 1 || type[0] != "Scaler") {
    return Status::InvalidArgument("stream does not hold a Scaler");
  }
  VUP_ASSIGN_OR_RETURN(std::vector<double> means, r.ExpectVector("means"));
  VUP_ASSIGN_OR_RETURN(std::vector<double> scales,
                       r.ExpectVector("scales"));
  if (means.size() != scales.size()) {
    return Status::InvalidArgument("means/scales size mismatch");
  }
  for (double s : scales) {
    // Fit never produces a non-positive or non-finite scale (constant
    // columns get scale 1); such a value can only come from corruption and
    // would poison every standardized feature downstream.
    if (!(s > 0.0) || !std::isfinite(s)) {
      return Status::InvalidArgument("scaler scale must be finite and > 0");
    }
  }
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> end, r.NextLine());
  if (end.size() != 1 || end[0] != "end") {
    return Status::InvalidArgument("missing end marker");
  }
  return StandardScaler::FromState(std::move(means), std::move(scales));
}

Status SaveLogistic(const LogisticRegression& model, std::ostream& os) {
  if (!model.fitted()) {
    return Status::FailedPrecondition("cannot serialize an unfitted model");
  }
  os << kMagic << "\n";
  os << "type Logistic\n";
  os << "l2 ";
  WriteDouble17(os, model.options().l2);
  os << "\nfit_intercept " << (model.options().fit_intercept ? 1 : 0)
     << "\n";
  os << "intercept ";
  WriteDouble17(os, model.intercept());
  os << "\n";
  WriteVector(os, "coef", model.coefficients());
  os << "end\n";
  if (!os) return Status::DataLoss("stream write failed");
  return Status::OK();
}

StatusOr<LogisticRegression> LoadLogistic(std::istream& is) {
  Reader r(is);
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> magic, r.NextLine());
  if (Join(magic, " ") != kMagic) {
    return Status::InvalidArgument("not a vupred-model v1 stream");
  }
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> type, r.Expect("type"));
  if (type.size() != 1 || type[0] != "Logistic") {
    return Status::InvalidArgument("stream does not hold a Logistic model");
  }
  LogisticRegression::Options o;
  VUP_ASSIGN_OR_RETURN(o.l2, r.ExpectDouble("l2"));
  VUP_ASSIGN_OR_RETURN(long long fi, r.ExpectInt("fit_intercept"));
  o.fit_intercept = fi != 0;
  VUP_ASSIGN_OR_RETURN(double intercept, r.ExpectDouble("intercept"));
  VUP_ASSIGN_OR_RETURN(std::vector<double> coef, r.ExpectVector("coef"));
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> end, r.NextLine());
  if (end.size() != 1 || end[0] != "end") {
    return Status::InvalidArgument("missing end marker");
  }
  return LogisticRegression::FromState(o, std::move(coef), intercept);
}

}  // namespace vup
