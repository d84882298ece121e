#include "cluster/cluster_meta.h"

#include <cmath>
#include <limits>

#include "common/record_file.h"
#include "common/string_util.h"
#include "telemetry/taxonomy.h"

namespace vup::cluster {

namespace {

constexpr const char* kMetaFile = "clusters.meta";
constexpr const char* kMetaMagic = "vupred-clusters v2";

// Structural caps: counts beyond these are garbage (or an attack), not a
// fleet. They bound every allocation a hostile file can drive.
constexpr long long kMaxDim = 1 << 16;
constexpr long long kMaxClusters = 1 << 16;
constexpr long long kMaxVehicles = 100'000'000;
constexpr uint64_t kMaxMetaBytes = 256ull << 20;

/// Parses `count` doubles from `tokens` starting at `offset`; all finite.
StatusOr<std::vector<double>> ParseDoubles(
    const std::vector<std::string>& tokens, size_t offset, size_t count,
    std::string_view what) {
  if (tokens.size() != offset + count) {
    return Status::InvalidArgument("value count mismatch in " +
                                   std::string(what));
  }
  std::vector<double> out;
  out.reserve(count);
  for (size_t i = offset; i < tokens.size(); ++i) {
    VUP_ASSIGN_OR_RETURN(double v, ParseDouble(tokens[i]));
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("non-finite value in " +
                                     std::string(what));
    }
    out.push_back(v);
  }
  return out;
}

/// `leading` followed by every double of `v`, printed %.17g.
std::vector<std::string> WithDoubles(std::vector<std::string> leading,
                                     const std::vector<double>& v) {
  for (double x : v) leading.push_back(StrFormat("%.17g", x));
  return leading;
}

StatusOr<ClustersMeta> MetaFromRecords(
    const std::vector<RecordLine>& records) {
  // Records come in a fixed order: each call takes the next one, whose key
  // must be `key`.
  size_t at = 0;
  const auto next =
      [&](std::string_view key) -> StatusOr<const std::vector<std::string>*> {
    if (at == records.size() || records[at].key != key) {
      return Status::InvalidArgument("expected a '" + std::string(key) +
                                     "' record");
    }
    return &records[at++].values;
  };
  const auto next_int = [&](std::string_view key) -> StatusOr<long long> {
    VUP_ASSIGN_OR_RETURN(const std::vector<std::string>* values, next(key));
    if (values->size() != 1) {
      return Status::InvalidArgument("expected one value for '" +
                                     std::string(key) + "'");
    }
    return ParseInt((*values)[0]);
  };

  ClustersMeta meta;
  VUP_ASSIGN_OR_RETURN(long long seed, next_int("seed"));
  if (seed < 0) return Status::InvalidArgument("seed out of range");
  meta.seed = static_cast<uint64_t>(seed);

  VUP_ASSIGN_OR_RETURN(long long acf_lags, next_int("acf_lags"));
  if (acf_lags < 1 || acf_lags > kMaxDim) {
    return Status::InvalidArgument("acf_lags out of range");
  }
  meta.acf_lags = static_cast<size_t>(acf_lags);

  VUP_ASSIGN_OR_RETURN(const std::vector<std::string>* values,
                       next("inertia"));
  VUP_ASSIGN_OR_RETURN(std::vector<double> inertia,
                       ParseDoubles(*values, 0, 1, "inertia"));
  if (inertia[0] < 0.0) return Status::InvalidArgument("inertia out of range");
  meta.inertia = inertia[0];

  VUP_ASSIGN_OR_RETURN(values, next("scaling_mean"));
  if (values->empty()) {
    return Status::InvalidArgument("missing scaling_mean count");
  }
  VUP_ASSIGN_OR_RETURN(const long long dim, ParseInt((*values)[0]));
  if (dim < 1 || dim > kMaxDim) {
    return Status::InvalidArgument("profile dimension out of range");
  }
  const std::string dim_text = std::to_string(dim);
  VUP_ASSIGN_OR_RETURN(
      meta.scaling.mean,
      ParseDoubles(*values, 1, static_cast<size_t>(dim), "scaling_mean"));

  VUP_ASSIGN_OR_RETURN(values, next("scaling_std"));
  if (values->empty() || (*values)[0] != dim_text) {
    return Status::InvalidArgument("scaling_std count mismatch");
  }
  VUP_ASSIGN_OR_RETURN(
      meta.scaling.std,
      ParseDoubles(*values, 1, static_cast<size_t>(dim), "scaling_std"));
  for (double s : meta.scaling.std) {
    if (s <= 0.0) return Status::InvalidArgument("scaling_std must be positive");
  }

  VUP_ASSIGN_OR_RETURN(const long long k, next_int("centroids"));
  if (k < 1 || k > kMaxClusters) {
    return Status::InvalidArgument("cluster count out of range");
  }
  for (long long c = 0; c < k; ++c) {
    VUP_ASSIGN_OR_RETURN(values, next("centroid"));
    if (values->size() < 2 || (*values)[0] != std::to_string(c) ||
        (*values)[1] != dim_text) {
      return Status::InvalidArgument(
          StrFormat("malformed centroid record %lld", c));
    }
    VUP_ASSIGN_OR_RETURN(
        std::vector<double> centroid,
        ParseDoubles(*values, 2, static_cast<size_t>(dim), "centroid"));
    meta.centroids.push_back(std::move(centroid));
  }

  VUP_ASSIGN_OR_RETURN(const long long num_vehicles, next_int("vehicles"));
  if (num_vehicles < 0 || num_vehicles > kMaxVehicles) {
    return Status::InvalidArgument("vehicle count out of range");
  }
  for (long long i = 0; i < num_vehicles; ++i) {
    VUP_ASSIGN_OR_RETURN(values, next("vehicle"));
    if (values->size() != 3) {
      return Status::InvalidArgument("malformed vehicle record");
    }
    VUP_ASSIGN_OR_RETURN(const long long id, ParseInt((*values)[0]));
    VUP_ASSIGN_OR_RETURN(const long long cluster, ParseInt((*values)[1]));
    VUP_ASSIGN_OR_RETURN(const long long type, ParseInt((*values)[2]));
    if (cluster < 0 || cluster >= k) {
      return Status::InvalidArgument("vehicle cluster id out of range");
    }
    if (type < 0 || type >= kNumVehicleTypes) {
      return Status::InvalidArgument("vehicle type out of range");
    }
    if (!meta.vehicles.empty() && id <= meta.vehicles.back().vehicle_id) {
      return Status::InvalidArgument(
          "vehicle ids must be strictly ascending");
    }
    meta.vehicles.push_back({id, static_cast<int>(cluster),
                             static_cast<int>(type)});
  }
  if (at != records.size()) {
    return Status::InvalidArgument("trailing records after the vehicles");
  }
  return meta;
}

std::vector<RecordLine> MetaToRecords(const ClustersMeta& meta) {
  std::vector<RecordLine> records;
  records.reserve(7 + meta.centroids.size() + meta.vehicles.size());
  records.push_back({"seed", {std::to_string(meta.seed)}});
  records.push_back({"acf_lags", {std::to_string(meta.acf_lags)}});
  records.push_back({"inertia", WithDoubles({}, {meta.inertia})});
  records.push_back(
      {"scaling_mean", WithDoubles({std::to_string(meta.scaling.mean.size())},
                                   meta.scaling.mean)});
  records.push_back(
      {"scaling_std", WithDoubles({std::to_string(meta.scaling.std.size())},
                                  meta.scaling.std)});
  records.push_back({"centroids", {std::to_string(meta.centroids.size())}});
  for (size_t c = 0; c < meta.centroids.size(); ++c) {
    records.push_back(
        {"centroid",
         WithDoubles({std::to_string(c),
                      std::to_string(meta.centroids[c].size())},
                     meta.centroids[c])});
  }
  records.push_back({"vehicles", {std::to_string(meta.vehicles.size())}});
  for (const VehicleAssignment& v : meta.vehicles) {
    records.push_back({"vehicle",
                       {std::to_string(v.vehicle_id),
                        std::to_string(v.cluster_id),
                        std::to_string(v.vehicle_type)}});
  }
  return records;
}

}  // namespace

int64_t ClusterModelId(int cluster_id) { return -1000 - cluster_id; }

int64_t TypeModelId(int vehicle_type) { return -2000 - vehicle_type; }

StatusOr<int> ClustersMeta::ClusterOf(int64_t vehicle_id) const {
  for (const VehicleAssignment& v : vehicles) {
    if (v.vehicle_id == vehicle_id) return v.cluster_id;
  }
  return Status::NotFound(
      StrFormat("vehicle %lld not in clusters.meta",
                static_cast<long long>(vehicle_id)));
}

StatusOr<int> ClustersMeta::TypeOf(int64_t vehicle_id) const {
  for (const VehicleAssignment& v : vehicles) {
    if (v.vehicle_id == vehicle_id) return v.vehicle_type;
  }
  return Status::NotFound(
      StrFormat("vehicle %lld not in clusters.meta",
                static_cast<long long>(vehicle_id)));
}

StatusOr<int> ClustersMeta::AssignProfile(const UsageProfile& profile) const {
  if (centroids.empty()) {
    return Status::FailedPrecondition("clusters.meta holds no centroids");
  }
  VUP_ASSIGN_OR_RETURN(std::vector<double> point, scaling.Apply(profile));
  double best = std::numeric_limits<double>::infinity();
  int best_c = 0;
  for (size_t c = 0; c < centroids.size(); ++c) {
    if (centroids[c].size() != point.size()) {
      return Status::InvalidArgument("centroid dimension mismatch");
    }
    double d = 0.0;
    for (size_t i = 0; i < point.size(); ++i) {
      const double delta = point[i] - centroids[c][i];
      d += delta * delta;
    }
    if (d < best) {
      best = d;
      best_c = static_cast<int>(c);
    }
  }
  return best_c;
}

StatusOr<ClustersMeta> ClustersMeta::Parse(std::string_view bytes) {
  VUP_ASSIGN_OR_RETURN(std::vector<RecordLine> records,
                       DecodeRecords(kMetaMagic, bytes));
  return MetaFromRecords(records);
}

std::string ClustersMeta::Serialize() const {
  return EncodeRecords(kMetaMagic, MetaToRecords(*this));
}

Status WriteClustersMetaFile(const std::string& directory,
                             const ClustersMeta& meta) {
  return WriteRecordFile(directory + "/" + kMetaFile, kMetaMagic,
                         MetaToRecords(meta));
}

StatusOr<ClustersMeta> ReadClustersMetaFile(const std::string& directory) {
  VUP_ASSIGN_OR_RETURN(std::vector<RecordLine> records,
                       ReadRecordFile(directory + "/" + kMetaFile, kMetaMagic,
                                      kMaxMetaBytes));
  return MetaFromRecords(records);
}

}  // namespace vup::cluster
