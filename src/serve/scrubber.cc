#include "serve/scrubber.h"

#include <chrono>
#include <filesystem>
#include <vector>

#include "common/file_util.h"
#include "common/string_util.h"
#include "serve/manifest.h"
#include "serve/model_registry.h"

namespace vup::serve {

namespace fs = std::filesystem;

std::string ScrubReport::ToString() const {
  return StrFormat(
      "%zu generations scanned (%zu damaged manifests), "
      "%zu files checked: %zu crc mismatches, %zu size mismatches, "
      "%zu missing, %zu quarantined",
      generations_scanned, damaged_manifests, files_checked, crc_mismatches,
      size_mismatches, missing_files, quarantined);
}

RegistryScrubber::RegistryScrubber(ScrubOptions options)
    : options_(std::move(options)) {}

RegistryScrubber::~RegistryScrubber() { Stop(); }

StatusOr<ScrubReport> RegistryScrubber::ScrubOnce() {
  ScrubReport report;
  std::error_code ec;

  // Committed generation directories under the root. Staging directories
  // are skipped: they are still being written and carry no manifest yet.
  std::vector<std::string> dirs;
  fs::directory_iterator it(options_.root, ec);
  if (ec) {
    return Status::Internal("cannot list " + options_.root + ": " +
                            ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_directory(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (!ModelRegistry::ParseGenerationName(name).ok()) continue;
    dirs.push_back(entry.path().string());
  }

  // The directory whose corruption must quarantine serving models.
  const uint64_t active = options_.registry != nullptr
                              ? options_.registry->active_generation()
                              : 0;
  const std::string active_dir =
      active == 0 ? std::string()
                  : options_.registry->directory() + "/" +
                        ModelRegistry::GenerationDirName(active);

  for (const std::string& dir : dirs) {
    ++report.generations_scanned;
    // A committed generation is sealed by its MANIFEST: a missing one is
    // as damaged as an unreadable one.
    StatusOr<GenerationManifest> manifest = ReadManifestFile(dir);
    if (!manifest.ok()) {
      ++report.damaged_manifests;
      continue;
    }
    for (const ManifestEntry& entry : manifest.value().entries()) {
      ++report.files_checked;
      files_verified_.Increment();
      // Capped at the listed size, so a grown or stray oversized file is
      // counted from its stat alone and never read.
      StatusOr<std::string> bytes =
          ReadFileCapped(dir + "/" + entry.file, entry.size);
      bool corrupt = true;
      if (bytes.status().IsDataLoss() ||
          (bytes.ok() && bytes.value().size() != entry.size)) {
        ++report.size_mismatches;
        size_mismatches_.Increment();
      } else if (!bytes.ok()) {
        ++report.missing_files;
        missing_files_.Increment();
      } else if (!GenerationManifest::VerifyBytes(entry, bytes.value()).ok()) {
        // The size already matched: the bytes fail their own trailer, or
        // it is not the listed one (another file's bytes of the same
        // size).
        ++report.crc_mismatches;
        crc_mismatches_.Increment();
      } else {
        corrupt = false;
      }
      if (corrupt && dir == active_dir && options_.registry != nullptr) {
        std::optional<int64_t> id =
            ModelRegistry::ParseBundleFileName(entry.file);
        if (id.has_value() && !options_.registry->IsQuarantined(*id)) {
          options_.registry->Quarantine(*id);
          ++report.quarantined;
          quarantines_.Increment();
        }
      }
    }
  }

  runs_.Increment();
  std::lock_guard<std::mutex> lock(mu_);
  last_report_ = report;
  return report;
}

bool RegistryScrubber::Due() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!schedule_started_) return true;
  return clock().Now() >= next_due_;
}

StatusOr<bool> RegistryScrubber::MaybeScrub() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (schedule_started_ && clock().Now() < next_due_) return false;
    schedule_started_ = true;
    next_due_ =
        clock().Now() + std::chrono::milliseconds(options_.interval_ms);
  }
  VUP_RETURN_IF_ERROR(ScrubOnce().status());
  return true;
}

void RegistryScrubber::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_requested_) {
      // Short real-time waits; the scrub *schedule* reads the injected
      // clock inside MaybeScrub, so tests can advance a FakeClock and see
      // a pass within a poll tick.
      cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_ms),
                   [this] { return stop_requested_; });
      if (stop_requested_) break;
      lock.unlock();
      (void)MaybeScrub();  // Root errors surface via last_report()/runs().
      lock.lock();
    }
  });
}

void RegistryScrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

ScrubReport RegistryScrubber::last_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_report_;
}

void RegistryScrubber::CollectMetrics(obs::MetricsSnapshot* out,
                                      const obs::LabelSet& labels) const {
  auto add = [&](const char* name, const char* help, obs::MetricType type,
                 const obs::LabelSet& sample_labels, double value) {
    obs::MetricFamily family;
    family.name = name;
    family.help = help;
    family.type = type;
    obs::MetricSample sample;
    sample.labels = sample_labels;
    sample.value = value;
    family.samples.push_back(std::move(sample));
    out->families.push_back(std::move(family));
  };
  using obs::MetricType;
  add("vupred_scrub_runs_total", "Completed scrub passes.",
      MetricType::kCounter, labels, static_cast<double>(runs_.value()));
  add("vupred_scrub_files_verified_total",
      "Manifest entries re-verified against disk.", MetricType::kCounter,
      labels, static_cast<double>(files_verified_.value()));
  obs::MetricFamily corruptions;
  corruptions.name = "vupred_scrub_corruptions_total";
  corruptions.help = "Corrupt files found by the scrubber, by kind.";
  corruptions.type = MetricType::kCounter;
  const std::pair<const char*, double> kinds[] = {
      {"crc", static_cast<double>(crc_mismatches_.value())},
      {"size", static_cast<double>(size_mismatches_.value())},
      {"missing", static_cast<double>(missing_files_.value())},
  };
  for (const auto& [kind, value] : kinds) {
    obs::MetricSample sample;
    sample.labels = labels;
    sample.labels.emplace_back("kind", kind);
    sample.value = value;
    corruptions.samples.push_back(std::move(sample));
  }
  out->families.push_back(std::move(corruptions));
  add("vupred_scrub_quarantines_total",
      "Active-generation models quarantined by the scrubber.",
      MetricType::kCounter, labels,
      static_cast<double>(quarantines_.value()));
}

}  // namespace vup::serve
