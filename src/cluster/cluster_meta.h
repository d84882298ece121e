#ifndef VUPRED_CLUSTER_CLUSTER_META_H_
#define VUPRED_CLUSTER_CLUSTER_META_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "cluster/profile.h"

namespace vup::cluster {

/// Reserved model ids of the serving hierarchy. Pooled bundles share the
/// registry's int64 bundle namespace with per-vehicle models (the bundle
/// file name round-trips negative ids), far below any real vehicle id:
///   cluster c  -> -1000 - c
///   type t     -> -2000 - t
///   global     -> -3000
int64_t ClusterModelId(int cluster_id);
int64_t TypeModelId(int vehicle_type);
inline constexpr int64_t kGlobalModelId = -3000;

/// One vehicle's place in the hierarchy.
struct VehicleAssignment {
  int64_t vehicle_id = 0;
  int cluster_id = 0;
  int vehicle_type = 0;
};

/// The persisted clustering of one published fleet: everything a serving
/// process needs to resolve vehicle -> cluster -> type -> global and to
/// assign a *new* vehicle to its nearest cluster (scaling + centroids).
///
/// Persisted as `clusters.meta` next to the model bundles of a generation:
/// a record file (common/record_file.h) under `vupred-clusters v2` whose
/// records come in a fixed order --
///
///   seed <n>
///   acf_lags <n>
///   inertia <x>
///   scaling_mean <dim> <x>...
///   scaling_std <dim> <x>...
///   centroids <k>
///   centroid <c> <dim> <x>...      k records, c = 0..k-1
///   vehicles <n>
///   vehicle <id> <cluster> <type>  n records, ascending id
///
/// -- with doubles printed %.17g, size caps on every count, and a parser
/// that returns Status errors -- never crashes -- on garbage.
struct ClustersMeta {
  uint64_t seed = 42;       // Clustering seed (k-means++ init).
  size_t acf_lags = 14;     // ProfileConfig the profiles were built with.
  double inertia = 0.0;     // Final k-means inertia.
  ProfileScaling scaling;   // Column standardization of the profiles.
  std::vector<std::vector<double>> centroids;  // k x dim, standardized.
  std::vector<VehicleAssignment> vehicles;     // Ascending vehicle_id.

  size_t k() const { return centroids.size(); }

  /// Cluster of a vehicle; NotFound for vehicles absent from the meta.
  StatusOr<int> ClusterOf(int64_t vehicle_id) const;

  /// Vehicle type recorded for a vehicle; NotFound when absent.
  StatusOr<int> TypeOf(int64_t vehicle_id) const;

  /// Nearest centroid of a standardized-on-the-fly profile: the cold-start
  /// path for vehicles not present in `vehicles`. Ties go to the lower
  /// cluster id.
  StatusOr<int> AssignProfile(const UsageProfile& profile) const;

  /// Strict parse of clusters.meta bytes (see above). Errors are
  /// InvalidArgument, never crashes.
  static StatusOr<ClustersMeta> Parse(std::string_view bytes);

  /// Serializes in the format Parse accepts, byte-deterministic for equal
  /// field values.
  std::string Serialize() const;
};

/// Writes `meta` into `directory` as clusters.meta (temp + rename, same
/// atomic-install discipline as generation publish).
Status WriteClustersMetaFile(const std::string& directory,
                             const ClustersMeta& meta);

/// Reads and parses `directory`/clusters.meta. NotFound when the file does
/// not exist (a generation published without clustering).
StatusOr<ClustersMeta> ReadClustersMetaFile(const std::string& directory);

}  // namespace vup::cluster

#endif  // VUPRED_CLUSTER_CLUSTER_META_H_
