#include "maxent/solution_cache.h"

#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace pme::maxent {
namespace {

/// Process-wide cache.* metrics. The instance's census stays the
/// per-instance source of truth for Stats(); the registry counters are
/// the cross-cutting view the `stats` serve verb and --metrics-out dump.
struct CacheMetrics {
  metrics::Counter* exact_hits;
  metrics::Counter* warm_hits;
  metrics::Counter* misses;
  metrics::Counter* insertions;
  metrics::Counter* evictions;
  metrics::Gauge* resident_doubles;
};

CacheMetrics& GetCacheMetrics() {
  static CacheMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    CacheMetrics r;
    r.exact_hits = &registry.GetCounter("cache.exact_hits");
    r.warm_hits = &registry.GetCounter("cache.warm_hits");
    r.misses = &registry.GetCounter("cache.misses");
    r.insertions = &registry.GetCounter("cache.insertions");
    r.evictions = &registry.GetCounter("cache.evictions");
    r.resident_doubles = &registry.GetGauge("cache.resident_doubles");
    return r;
  }();
  return m;
}

}  // namespace

SolutionCache::SolutionCache(size_t byte_budget)
    : byte_budget_(byte_budget), budget_doubles_(byte_budget / sizeof(double)) {}

std::shared_ptr<const CachedComponentSolution> SolutionCache::FindExact(
    const Hash128& exact_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(exact_key);
  if (it == entries_.end()) {
    ++stats_.misses;
    GetCacheMetrics().misses->Add();
    return nullptr;
  }
  // Refresh the LRU position: a hit entry is the last to be evicted.
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  ++stats_.exact_hits;
  GetCacheMetrics().exact_hits->Add();
  return it->second.solution;
}

std::shared_ptr<const CachedComponentSolution> SolutionCache::FindWarm(
    const Hash128& vars_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto warm = warm_index_.find(vars_key);
  if (warm == warm_index_.end()) return nullptr;
  auto it = entries_.find(warm->second);
  if (it == entries_.end()) {
    // The entry was evicted since the warm pointer was written.
    warm_index_.erase(warm);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  ++stats_.warm_hits;
  GetCacheMetrics().warm_hits->Add();
  return it->second.solution;
}

void SolutionCache::Insert(const Hash128& exact_key, const Hash128& vars_key,
                           CachedComponentSolution solution) {
  auto shared =
      std::make_shared<const CachedComponentSolution>(std::move(solution));
  const size_t doubles = shared->ResidentDoubles();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(exact_key);
  if (it != entries_.end()) {
    // Replace in place (same key, refreshed content — e.g. a tighter
    // re-solve of the same component).
    const size_t replaced = it->second.solution->ResidentDoubles();
    stats_.resident_doubles -= replaced;
    stats_.resident_doubles += doubles;
    GetCacheMetrics().resident_doubles->Add(static_cast<int64_t>(doubles) -
                                            static_cast<int64_t>(replaced));
    it->second.solution = std::move(shared);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  } else {
    lru_.push_front(exact_key);
    entries_.emplace(exact_key, Entry{std::move(shared), lru_.begin()});
    stats_.resident_doubles += doubles;
    ++stats_.insertions;
    GetCacheMetrics().insertions->Add();
    GetCacheMetrics().resident_doubles->Add(static_cast<int64_t>(doubles));
  }
  warm_index_[vars_key] = exact_key;
  EvictLocked(budget_doubles_);
  // Failpoint `cache_evict_race`: a deterministic stand-in for an
  // eviction storm racing concurrent lookups — every entry (including
  // the one just inserted) is thrown out, so warm pointers dangle and
  // in-flight shared_ptr handles outlive their entries. Correctness must
  // not depend on residency.
  if (PME_FAILPOINT("cache_evict_race")) EvictLocked(0);
}

void SolutionCache::EvictLocked(size_t budget_doubles) {
  while (stats_.resident_doubles > budget_doubles && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    const size_t evicted = it->second.solution->ResidentDoubles();
    stats_.resident_doubles -= evicted;
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
    GetCacheMetrics().evictions->Add();
    GetCacheMetrics().resident_doubles->Add(-static_cast<int64_t>(evicted));
  }
}

void SolutionCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  GetCacheMetrics().resident_doubles->Add(
      -static_cast<int64_t>(stats_.resident_doubles));
  entries_.clear();
  lru_.clear();
  warm_index_.clear();
  stats_.resident_doubles = 0;
}

SolutionCacheStats SolutionCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SolutionCacheStats stats = stats_;
  stats.entries = entries_.size();
  return stats;
}

}  // namespace pme::maxent
