#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>
#include <thread>

namespace vup::bench {

Percentiles ComputePercentiles(std::vector<double>* samples) {
  Percentiles p;
  std::sort(samples->begin(), samples->end());
  p.count = samples->size();
  if (p.count == 0) return p;
  // Nearest rank: the q-quantile is the ceil(q*n)-th smallest sample.
  auto rank = [&](double q) {
    return static_cast<size_t>(std::ceil(q * static_cast<double>(p.count)));
  };
  p.p50 = (*samples)[std::max<size_t>(rank(0.5), 1) - 1];
  for (double q : {0.99, 0.90}) {
    const size_t r = std::max<size_t>(rank(q), 1);
    if (p.count - r >= 10) {
      p.tail = (*samples)[r - 1];
      p.tail_pct = q * 100.0;
      p.beyond_tail = p.count - r;
      break;
    }
  }
  return p;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit, const std::string& source) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = Metric{name, value, unit, source};
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit, source});
}

IdStream::IdStream(size_t n, double zipf_s, uint64_t seed)
    : rng_(SplitMix64(seed)) {
  rank_to_id_.resize(n);
  for (size_t i = 0; i < n; ++i) rank_to_id_[i] = static_cast<int64_t>(i + 1);
  Rng shuffle(SplitMix64(seed ^ 0x5eedULL));
  shuffle.Shuffle(&rank_to_id_);
  top_ranks_ = std::max<size_t>(n / 100, 1);
  if (zipf_s <= 0.0) {
    analytic_top_share_ =
        static_cast<double>(top_ranks_) / static_cast<double>(n);
    return;
  }
  cdf_.resize(n);
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    cdf_[r] = sum;
  }
  analytic_top_share_ = cdf_[top_ranks_ - 1] / sum;
  for (double& c : cdf_) c /= sum;
}

int64_t IdStream::Next() {
  size_t rank = 0;
  if (cdf_.empty()) {
    rank = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(rank_to_id_.size()) - 1));
  } else {
    const double u = rng_.Uniform();
    rank = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    rank = std::min(rank, cdf_.size() - 1);
  }
  ++draws_;
  if (rank < top_ranks_) ++top_draws_;
  return rank_to_id_[rank];
}

double IdStream::MeasuredTopShare() const {
  return draws_ == 0 ? 0.0
                     : static_cast<double>(top_draws_) /
                           static_cast<double>(draws_);
}

double IdStream::TopShareTolerance() const {
  const double p = analytic_top_share_;
  const double n = static_cast<double>(std::max<uint64_t>(draws_, 1));
  return 6.0 * std::sqrt(p * (1.0 - p) / n) + 1e-3;
}

CounterSample CounterSample::Take(const std::string& pool_label) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  // Warm-start counters carry an algorithm label; sum every label set.
  auto sum_family = [&](std::string_view name) {
    double total = 0.0;
    for (const obs::MetricFamily& f : snap.families) {
      if (f.name != name) continue;
      for (const obs::MetricSample& s : f.samples) total += s.value;
    }
    return total;
  };
  CounterSample c;
  c.warm_hits = sum_family("vupred_train_warmstart_hits_total");
  c.warm_cold = sum_family("vupred_train_warmstart_cold_starts_total");
  c.kernel_hits = snap.Value("vupred_kernel_cache_hits_total");
  c.kernel_misses = snap.Value("vupred_kernel_cache_misses_total");
  c.window_advances = snap.Value("vupred_window_incremental_advances_total");
  c.window_rebuilds = snap.Value("vupred_window_incremental_rebuilds_total");
  if (const obs::MetricSample* s = snap.Find("vupred_threadpool_task_seconds",
                                             {{"pool", pool_label}})) {
    c.pool_task_seconds = s->histogram.sum;
    c.pool_tasks = s->histogram.count;
  }
  return c;
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void SetPoolMetrics(const CounterSample& before, const CounterSample& after,
                    double wall, const std::string& source, RunResult* result) {
  const double busy = after.pool_task_seconds - before.pool_task_seconds;
  const double tasks =
      static_cast<double>(after.pool_tasks - before.pool_tasks);
  result->Set("pool.task_us", Ratio(busy, tasks) * 1e6, "us", source);
  result->Set("pool.busy_share", Ratio(busy, kWorkers * wall), "share",
              source);
}

void SetTrainingMetrics(const CounterSample& before, const CounterSample& after,
                        const std::string& source, RunResult* result) {
  const double hits = after.warm_hits - before.warm_hits;
  const double cold = after.warm_cold - before.warm_cold;
  result->Set("ml.warmstart_hit_ratio", Ratio(hits, hits + cold), "ratio",
              source);
  const double khits = after.kernel_hits - before.kernel_hits;
  const double kmiss = after.kernel_misses - before.kernel_misses;
  result->Set("ml.kernel_cache_hit_ratio", Ratio(khits, khits + kmiss),
              "ratio", source);
  const double adv = after.window_advances - before.window_advances;
  const double reb = after.window_rebuilds - before.window_rebuilds;
  result->Set("core.window_advance_ratio", Ratio(adv, adv + reb), "ratio",
              source);
}

void SetStageShares(const obs::Tracer& tracer, const std::string& source,
                    RunResult* result) {
  std::map<std::string, double> stage;
  double fit = 0.0;
  std::function<void(const obs::Tracer::Node&)> walk =
      [&](const obs::Tracer::Node& node) {
        if (node.name == "fit") {
          fit += node.total_seconds;
          for (const auto& child : node.children) {
            stage[child->name] += child->total_seconds;
          }
        }
        for (const auto& child : node.children) walk(*child);
      };
  tracer.VisitTree(walk);
  result->Set("core.window_share", Ratio(stage["window"], fit), "share",
              source);
  result->Set("core.select_share", Ratio(stage["select"], fit), "share",
              source);
  result->Set("core.scale_share", Ratio(stage["scale"], fit), "share", source);
  result->Set("ml.fit_share", Ratio(stage["train"], fit), "share", source);
}

void CheckShardSums(const serve::ModelRegistryStats& stats,
                    RunResult* result) {
  serve::ModelRegistryShardStats sum;
  for (const serve::ModelRegistryShardStats& shard : stats.shards) {
    sum.hits += shard.hits;
    sum.misses += shard.misses;
    sum.evictions += shard.evictions;
    sum.quarantines += shard.quarantines;
    sum.resident_models += shard.resident_models;
    sum.cache_bytes += shard.cache_bytes;
  }
  result->Check(sum.hits == stats.hits && sum.misses == stats.misses &&
                    sum.evictions == stats.evictions &&
                    sum.quarantines == stats.quarantines &&
                    sum.resident_models == stats.resident_models &&
                    sum.cache_bytes == stats.cache_bytes,
                "registry shard slices do not sum to the totals");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string EnvironmentLine() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "env: compiler=\"%s\" build_type=%s flags=\"%s\" "
                "hardware_concurrency=%u",
                __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                std::thread::hardware_concurrency());
  return buf;
}

double MedianSetupSeconds(int times, const std::function<void()>& setup) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) walls.push_back(TimeIt(setup));
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

}  // namespace vup::bench
