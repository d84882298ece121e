#ifndef VUPRED_TESTS_TESTING_REGISTRY_H_
#define VUPRED_TESTS_TESTING_REGISTRY_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>

#include "common/statusor.h"
#include "core/forecaster.h"
#include "serve/guarded_publish.h"
#include "serve/model_registry.h"

namespace vup::serve {

/// Publishes `fleet` (vehicle id -> forecaster) as one sealed generation of
/// `registry` -- NewGeneration, Add each, Commit, Reload -- so the registry
/// serves exactly that fleet. Forecasters are move-only, hence the
/// pointers; the publisher snapshots each one before this returns.
inline Status PublishFleet(
    ModelRegistry& registry,
    const std::map<int64_t, const VehicleForecaster*>& fleet,
    const RegistryMeta& meta = RegistryMeta{}) {
  VUP_ASSIGN_OR_RETURN(GenerationPublisher publisher,
                       registry.NewGeneration());
  for (const auto& [id, forecaster] : fleet) {
    VUP_RETURN_IF_ERROR(publisher.Add(id, *forecaster));
  }
  VUP_RETURN_IF_ERROR(publisher.Commit(meta));
  return registry.Reload();
}

/// Points root/CURRENT at `generation` by hand, the way a chaos test moves
/// the pointer: a `CURRENT.flip` symlink renamed over CURRENT, with no
/// journal and no check that `generation` exists or is even a name.
inline Status FlipCurrent(const std::string& root,
                          const std::string& generation) {
  const std::string tmp = root + "/" + kCurrentFileName + ".flip";
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
  if (!ec) std::filesystem::create_symlink(generation, tmp, ec);
  if (!ec) std::filesystem::rename(tmp, root + "/" + kCurrentFileName, ec);
  if (ec) {
    return Status::Internal("cannot flip CURRENT under " + root + ": " +
                            ec.message());
  }
  return Status::OK();
}

/// Puts a directory where the listed bundle at `path` was. Every read of
/// it then fails with Internal ("cannot stat ...: Is a directory"), the
/// one load failure a sealed generation still has -- the way to trip a
/// circuit breaker, since corrupt listed bytes quarantine instead.
inline Status BreakBundle(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (!ec) std::filesystem::create_directory(path, ec);
  if (ec) {
    return Status::Internal("cannot break " + path + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace vup::serve

#endif  // VUPRED_TESTS_TESTING_REGISTRY_H_
