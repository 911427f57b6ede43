#include "service/query_cache.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/fault_inject.h"

namespace daf::service {

namespace {

// Packs the CS-shaping options — the only MatchOptions that change the
// cached blob — into one fingerprint word for the key suffix. Every value
// is kept whole, so a hit always matches the blob's fingerprint, which
// DafMatchPrepared checks field by field.
uint64_t OptionsFingerprint(const MatchOptions& options) {
  uint64_t fp = static_cast<uint32_t>(options.refinement_steps);
  if (options.use_nlf_filter) fp |= uint64_t{1} << 32;
  if (options.use_mnd_filter) fp |= uint64_t{1} << 33;
  if (options.injective) fp |= uint64_t{1} << 34;
  return fp;
}

}  // namespace

size_t QueryCache::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the key words; the canonical encoding already mixes the
  // graph structure, so a simple fold distributes well across shards.
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t w : k) {
    h = (h ^ w) * 1099511628211ULL;
    h = (h ^ (w >> 32)) * 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

QueryCache::QueryCache(QueryCacheOptions options)
    : options_(options), ledger_(0, options.budget) {
  const uint32_t shards = std::max(options_.shards, 1u);
  shards_.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

QueryCache::Shard& QueryCache::ShardFor(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

bool QueryCache::EvictOne(Shard& shard) {
  if (shard.lru.empty()) return false;
  if (FAULT_POINT(cache_evict)) return false;  // injected eviction failure
  const Key& victim = shard.lru.back();
  auto it = shard.entries.find(victim);
  const uint64_t bytes = it->second.bytes;
  // The blob itself dies with its last lease, not here: erasing the entry
  // only drops the cache's reference.
  shard.entries.erase(it);
  shard.lru.pop_back();
  resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  ledger_.Uncharge(bytes);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool QueryCache::Insert(Shard& shard, const Key& key,
                        std::shared_ptr<const PreparedQuery> blob) {
  if (FAULT_POINT(cache_insert)) return false;  // injected insert failure
  const uint64_t bytes = blob->resident_bytes;
  if (options_.max_resident_bytes != 0) {
    while (resident_bytes_.load(std::memory_order_relaxed) + bytes >
           options_.max_resident_bytes) {
      if (!EvictOne(shard)) return false;
    }
  }
  // Headroom against the parent ledger: a failed Charge latches exhaustion
  // on the private leaf only; undo, reset, and evict until the charge fits
  // (or nothing is left to evict in this shard).
  while (!ledger_.Charge(bytes)) {
    ledger_.Uncharge(bytes);
    ledger_.ResetExhausted();
    if (!EvictOne(shard)) return false;
  }
  shard.lru.push_front(key);
  Entry entry;
  entry.blob = std::move(blob);
  entry.bytes = bytes;
  entry.lru_it = shard.lru.begin();
  shard.entries.emplace(key, std::move(entry));
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

QueryCache::Lease QueryCache::Acquire(const Graph& query, const Graph& data,
                                      const MatchOptions& options,
                                      uint64_t graph_id) {
  Lease lease;
  lease.form = CanonicalizeQuery(query, options_.canonical_max_leaves);
  if (!lease.form.complete) {
    // Canonization abandoned: the key is not relabeling-invariant, so a
    // cache entry under it would be wrong for some isomorph. Run cold.
    uncacheable_.fetch_add(1, std::memory_order_relaxed);
    return lease;
  }

  Key key;
  key.reserve(lease.form.key.size() + 3);
  key.push_back(OptionsFingerprint(options));
  key.push_back(options_.graph_id);
  key.push_back(graph_id);
  key.insert(key.end(), lease.form.key.begin(), lease.form.key.end());
  Shard& shard = ShardFor(key);
  lookups_.fetch_add(1, std::memory_order_relaxed);

  std::shared_ptr<InFlight> latch;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      hits_.fetch_add(1, std::memory_order_relaxed);
      lease.prepared = it->second.blob;
      lease.outcome = CacheOutcome::kHit;
      return lease;
    }
    auto in_it = shard.in_flight.find(key);
    if (in_it != shard.in_flight.end()) {
      latch = in_it->second;
    } else {
      latch = std::make_shared<InFlight>();
      shard.in_flight.emplace(key, latch);
      builder = true;
    }
  }

  if (!builder) {
    // Coalesce onto the in-flight build, polling our own cancel token so a
    // cancelled waiter is not held hostage by someone else's long build.
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    lease.outcome = CacheOutcome::kCoalesced;
    std::unique_lock<std::mutex> lock(latch->mutex);
    while (!latch->done) {
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        lease.interrupted = StopCause::kCancel;
        return lease;
      }
      latch->cv.wait_for(lock, std::chrono::milliseconds(10));
    }
    lease.prepared = latch->result;
    lease.interrupted = latch->cause;
    return lease;
  }

  // Miss: build once, publish under the latch. The build runs under the
  // calling job's own stop sources, so it is exactly as cancellable as a
  // cold run; failure unregisters the latch and publishes nothing.
  misses_.fetch_add(1, std::memory_order_relaxed);
  lease.outcome = CacheOutcome::kMiss;
  Graph canonical = BuildCanonicalGraph(query, lease.form);
  PrepareOutcome built = PrepareQuery(canonical, data, options);

  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (built.prepared != nullptr) {
      if (!Insert(shard, key, built.prepared)) {
        // Not retained (fault injection or memory pressure): the caller —
        // and every latch waiter — still gets the blob; only reuse by
        // *later* submissions is lost.
        insert_failures_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    shard.in_flight.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(latch->mutex);
    latch->done = true;
    latch->result = built.prepared;
    latch->cause = built.interrupted;
    latch->cv.notify_all();
  }
  lease.prepared = built.prepared;
  lease.interrupted = built.interrupted;
  return lease;
}

QueryCacheStats QueryCache::Stats() const {
  QueryCacheStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.insert_failures = insert_failures_.load(std::memory_order_relaxed);
  s.uncacheable = uncacheable_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

void QueryCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) {
      resident_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      ledger_.Uncharge(entry.bytes);
    }
    shard->entries.clear();
    shard->lru.clear();
  }
}

}  // namespace daf::service
