#ifndef VUPRED_ML_TREE_H_
#define VUPRED_ML_TREE_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace vup {

/// CART-style regression tree with exact greedy splits minimizing the sum of
/// squared errors. max_depth == 1 yields the decision stumps the paper's
/// Gradient Boosting configuration uses.
class RegressionTree : public Regressor {
 public:
  struct Options {
    int max_depth = 3;
    size_t min_samples_split = 2;
    size_t min_samples_leaf = 1;
  };

  /// Serializable node state (mirrors the internal layout; index 0 is the
  /// root, feature < 0 marks a leaf).
  struct NodeState {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };

  RegressionTree() = default;
  explicit RegressionTree(Options options) : options_(options) {}

  /// Reconstructs a fitted tree from serialized state (ml/serialize.h).
  static RegressionTree FromState(Options options,
                                  const std::vector<NodeState>& nodes,
                                  size_t num_features);

  /// Current node state, for serialization. Empty when unfitted.
  std::vector<NodeState> GetState() const;

  const Options& options() const { return options_; }
  size_t num_features() const { return num_features_; }

  Status Fit(const Matrix& x, std::span<const double> y) override;
  StatusOr<double> PredictOne(std::span<const double> features) const override;
  std::string name() const override { return "Tree"; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<RegressionTree>(options_);
  }
  std::unique_ptr<Regressor> CloneFitted() const override {
    return std::make_unique<RegressionTree>(*this);
  }
  bool fitted() const override { return fitted_; }
  size_t ResidentBytes() const override {
    return sizeof(*this) + nodes_.capacity() * sizeof(Node);
  }

  /// Replaces each leaf's value with a statistic (median or mean) of
  /// `values` over the training rows routed to that leaf. This is the
  /// leaf-relabeling step LAD gradient boosting needs: trees are grown on
  /// gradient signs but leaves predict the median residual.
  /// `x` must be the training matrix the tree was fitted on.
  Status RelabelLeaves(const Matrix& x, std::span<const double> values,
                       bool use_median);

  size_t num_leaves() const;
  int depth() const;

 private:
  struct Node {
    int feature = -1;  // -1 == leaf.
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };

  /// Recursively grows the subtree over `indices`; returns its node index.
  int Grow(const Matrix& x, std::span<const double> y,
           std::vector<size_t>& indices, int depth);

  /// Index of the leaf a sample lands in.
  int LeafIndex(std::span<const double> features) const;

  Options options_;
  bool fitted_ = false;
  size_t num_features_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace vup

#endif  // VUPRED_ML_TREE_H_
