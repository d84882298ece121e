#include "cluster/cluster_meta.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

#include "common/file_util.h"
#include "common/string_util.h"
#include "telemetry/taxonomy.h"

namespace vup::cluster {

namespace {

constexpr const char* kMetaFile = "clusters.meta";
constexpr const char* kMetaMagic = "vupred-clusters v1";
constexpr const char* kMetaEnd = "end-clusters";

// Structural caps: counts beyond these are garbage (or an attack), not a
// fleet. They bound every allocation a hostile stream can drive.
constexpr long long kMaxDim = 1 << 16;
constexpr long long kMaxClusters = 1 << 16;
constexpr long long kMaxVehicles = 100'000'000;

/// Reads the next line; it must be newline-terminated (a writer killed
/// mid-line leaves a partial final line, which must parse as truncation,
/// not as a shorter-but-plausible value).
StatusOr<std::string> NextLine(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("unexpected end of clusters.meta");
  }
  if (in.eof()) {
    return Status::InvalidArgument(
        "clusters.meta line not newline-terminated (truncated?)");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

/// Next line split on spaces; token 0 must equal `key`. Returns the rest.
StatusOr<std::vector<std::string>> ExpectTokens(std::istream& in,
                                                std::string_view key) {
  VUP_ASSIGN_OR_RETURN(std::string line, NextLine(in));
  std::vector<std::string> tokens;
  for (const std::string& t : Split(std::string(Trim(line)), ' ')) {
    if (!t.empty()) tokens.push_back(t);
  }
  if (tokens.empty() || tokens[0] != key) {
    return Status::InvalidArgument(
        "expected '" + std::string(key) + "' line, got '" +
        (tokens.empty() ? std::string() : tokens[0]) + "'");
  }
  tokens.erase(tokens.begin());
  return tokens;
}

StatusOr<long long> ExpectInt(std::istream& in, std::string_view key) {
  VUP_ASSIGN_OR_RETURN(std::vector<std::string> rest, ExpectTokens(in, key));
  if (rest.size() != 1) {
    return Status::InvalidArgument("expected one value for '" +
                                   std::string(key) + "'");
  }
  return ParseInt(rest[0]);
}

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

void WriteDoubles(std::ostringstream& os, const std::vector<double>& v) {
  for (double x : v) {
    os << " ";
    WriteDouble17(os, x);
  }
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

StatusOr<ClustersMeta> ClustersMeta::Parse(std::istream& in) {
  {
    VUP_ASSIGN_OR_RETURN(std::string magic, NextLine(in));
    if (Trim(magic) != kMetaMagic) {
      return Status::InvalidArgument(std::string("not a ") + kMetaMagic +
                                     " stream");
    }
  }

  ClustersMeta meta;
  VUP_ASSIGN_OR_RETURN(long long seed, ExpectInt(in, "seed"));
  meta.seed = static_cast<uint64_t>(seed);

  VUP_ASSIGN_OR_RETURN(long long acf_lags, ExpectInt(in, "acf_lags"));
  if (acf_lags < 1 || acf_lags > kMaxDim) {
    return Status::InvalidArgument("acf_lags out of range");
  }
  meta.acf_lags = static_cast<size_t>(acf_lags);

  {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> rest,
                         ExpectTokens(in, "inertia"));
    if (rest.size() != 1) {
      return Status::InvalidArgument("expected one value for 'inertia'");
    }
    VUP_ASSIGN_OR_RETURN(meta.inertia, ParseDouble(rest[0]));
    if (!std::isfinite(meta.inertia) || meta.inertia < 0.0) {
      return Status::InvalidArgument("inertia out of range");
    }
  }

  long long dim = 0;
  {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> rest,
                         ExpectTokens(in, "scaling_mean"));
    if (rest.empty()) {
      return Status::InvalidArgument("missing scaling_mean count");
    }
    VUP_ASSIGN_OR_RETURN(dim, ParseInt(rest[0]));
    if (dim < 1 || dim > kMaxDim) {
      return Status::InvalidArgument("profile dimension out of range");
    }
    VUP_ASSIGN_OR_RETURN(
        meta.scaling.mean,
        ParseDoubles(rest, 1, static_cast<size_t>(dim), "scaling_mean"));
  }
  {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> rest,
                         ExpectTokens(in, "scaling_std"));
    if (rest.empty() || rest[0] != StrFormat("%lld", dim)) {
      return Status::InvalidArgument("scaling_std count mismatch");
    }
    VUP_ASSIGN_OR_RETURN(
        meta.scaling.std,
        ParseDoubles(rest, 1, static_cast<size_t>(dim), "scaling_std"));
    for (double s : meta.scaling.std) {
      if (s <= 0.0) {
        return Status::InvalidArgument("scaling_std must be positive");
      }
    }
  }

  VUP_ASSIGN_OR_RETURN(long long k, ExpectInt(in, "centroids"));
  if (k < 1 || k > kMaxClusters) {
    return Status::InvalidArgument("cluster count out of range");
  }
  meta.centroids.reserve(static_cast<size_t>(k));
  for (long long c = 0; c < k; ++c) {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> rest,
                         ExpectTokens(in, "centroid"));
    if (rest.size() < 2 || rest[0] != StrFormat("%lld", c) ||
        rest[1] != StrFormat("%lld", dim)) {
      return Status::InvalidArgument(
          StrFormat("malformed centroid line %lld", c));
    }
    VUP_ASSIGN_OR_RETURN(
        std::vector<double> centroid,
        ParseDoubles(rest, 2, static_cast<size_t>(dim), "centroid"));
    meta.centroids.push_back(std::move(centroid));
  }

  VUP_ASSIGN_OR_RETURN(long long num_vehicles, ExpectInt(in, "vehicles"));
  if (num_vehicles < 0 || num_vehicles > kMaxVehicles) {
    return Status::InvalidArgument("vehicle count out of range");
  }
  meta.vehicles.reserve(static_cast<size_t>(num_vehicles));
  int64_t prev_id = std::numeric_limits<int64_t>::min();
  for (long long i = 0; i < num_vehicles; ++i) {
    VUP_ASSIGN_OR_RETURN(std::vector<std::string> rest,
                         ExpectTokens(in, "vehicle"));
    if (rest.size() != 3) {
      return Status::InvalidArgument("malformed vehicle line");
    }
    VehicleAssignment v;
    VUP_ASSIGN_OR_RETURN(long long id, ParseInt(rest[0]));
    VUP_ASSIGN_OR_RETURN(long long cluster, ParseInt(rest[1]));
    VUP_ASSIGN_OR_RETURN(long long type, ParseInt(rest[2]));
    if (cluster < 0 || cluster >= k) {
      return Status::InvalidArgument("vehicle cluster id out of range");
    }
    if (type < 0 || type >= kNumVehicleTypes) {
      return Status::InvalidArgument("vehicle type out of range");
    }
    v.vehicle_id = id;
    v.cluster_id = static_cast<int>(cluster);
    v.vehicle_type = static_cast<int>(type);
    if (v.vehicle_id <= prev_id) {
      return Status::InvalidArgument(
          "vehicle ids must be strictly ascending");
    }
    prev_id = v.vehicle_id;
    meta.vehicles.push_back(v);
  }

  {
    VUP_ASSIGN_OR_RETURN(std::string end, NextLine(in));
    if (Trim(end) != kMetaEnd) {
      return Status::InvalidArgument("missing end-clusters sentinel");
    }
  }
  std::string trailing;
  while (std::getline(in, trailing)) {
    if (!Trim(trailing).empty()) {
      return Status::InvalidArgument("trailing content after end-clusters");
    }
  }
  return meta;
}

std::string ClustersMeta::Serialize() const {
  std::ostringstream os;
  os << kMetaMagic << "\n";
  os << "seed " << seed << "\n";
  os << "acf_lags " << acf_lags << "\n";
  os << "inertia ";
  WriteDouble17(os, inertia);
  os << "\n";
  os << "scaling_mean " << scaling.mean.size();
  WriteDoubles(os, scaling.mean);
  os << "\n";
  os << "scaling_std " << scaling.std.size();
  WriteDoubles(os, scaling.std);
  os << "\n";
  os << "centroids " << centroids.size() << "\n";
  for (size_t c = 0; c < centroids.size(); ++c) {
    os << "centroid " << c << " " << centroids[c].size();
    WriteDoubles(os, centroids[c]);
    os << "\n";
  }
  os << "vehicles " << vehicles.size() << "\n";
  for (const VehicleAssignment& v : vehicles) {
    os << "vehicle " << v.vehicle_id << " " << v.cluster_id << " "
       << v.vehicle_type << "\n";
  }
  os << kMetaEnd << "\n";
  return os.str();
}

Status WriteClustersMetaFile(const std::string& directory,
                             const ClustersMeta& meta) {
  return WriteFileAtomic(directory + "/" + kMetaFile, meta.Serialize());
}

StatusOr<ClustersMeta> ReadClustersMetaFile(const std::string& directory) {
  const std::string path = directory + "/" + kMetaFile;
  std::ifstream in(path);
  if (!in) return Status::NotFound("no clusters.meta in " + directory);
  return ClustersMeta::Parse(in);
}

}  // namespace vup::cluster
