#include "obs/service_metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace daf::obs {

namespace {

// Bucket index of a sample: bucket 0 holds everything <= 1 µs, bucket i
// holds (2^{i-1}, 2^i] µs, the last bucket absorbs the tail.
int BucketIndex(double ms) {
  if (ms <= 0.001) return 0;
  const int idx = static_cast<int>(std::ceil(std::log2(ms / 0.001)));
  return std::min(idx, LatencyHistogram::kNumBuckets - 1);
}

}  // namespace

double LatencyHistogram::BucketUpperBound(int i) {
  return 0.001 * std::ldexp(1.0, i);
}

void LatencyHistogram::Record(double ms) {
  if (ms < 0) ms = 0;
  ++buckets_[BucketIndex(ms)];
  if (count_ == 0 || ms < min_ms_) min_ms_ = ms;
  if (ms > max_ms_) max_ms_ = ms;
  sum_ms_ += ms;
  ++count_;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ms_ < min_ms_) min_ms_ = other.min_ms_;
  max_ms_ = std::max(max_ms_, other.max_ms_);
  sum_ms_ += other.sum_ms_;
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target = static_cast<uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      return std::min(BucketUpperBound(i), max_ms_);
    }
  }
  return max_ms_;
}

namespace {

void WriteHistogram(JsonWriter& w, const LatencyHistogram& h) {
  w.BeginObject();
  w.Key("count").Uint(h.count());
  w.Key("min_ms").Double(h.min_ms());
  w.Key("mean_ms").Double(h.mean_ms());
  w.Key("max_ms").Double(h.max_ms());
  w.Key("p50_ms").Double(h.Quantile(0.50));
  w.Key("p90_ms").Double(h.Quantile(0.90));
  w.Key("p95_ms").Double(h.Quantile(0.95));
  w.Key("p99_ms").Double(h.Quantile(0.99));
  w.EndObject();
}

}  // namespace

void WriteServiceMetrics(JsonWriter& w, const ServiceMetricsSnapshot& m) {
  w.BeginObject();
  w.Key("counters").BeginObject();
  w.Key("submitted").Uint(m.counters.submitted);
  w.Key("rejected").Uint(m.counters.rejected);
  w.Key("completed").Uint(m.counters.completed);
  w.Key("cancelled").Uint(m.counters.cancelled);
  w.Key("timed_out").Uint(m.counters.timed_out);
  w.Key("failed").Uint(m.counters.failed);
  w.Key("resource_exhausted").Uint(m.counters.resource_exhausted);
  w.Key("parallel_jobs").Uint(m.counters.parallel_jobs);
  w.EndObject();
  w.Key("queue_depth").Uint(m.queue_depth);
  w.Key("running").Uint(m.running);
  w.Key("workers").Uint(m.workers);
  w.Key("embeddings_streamed").Uint(m.embeddings_streamed);
  w.Key("resources").BeginObject();
  w.Key("watchdog_fires").Uint(m.watchdog_fires);
  w.Key("budget_rejections").Uint(m.budget_rejections);
  w.Key("peak_job_bytes").Uint(m.peak_job_bytes);
  w.Key("global_memory_used").Uint(m.global_memory_used);
  w.Key("global_memory_limit").Uint(m.global_memory_limit);
  w.Key("pool_peak_in_use").Uint(m.pool_peak_in_use);
  w.Key("pool_capacity").Uint(m.pool_capacity);
  w.EndObject();
  w.Key("cache").BeginObject();
  w.Key("enabled").Bool(m.cache_enabled);
  w.Key("cache_lookups").Uint(m.cache_lookups);
  w.Key("cache_hits").Uint(m.cache_hits);
  w.Key("cache_misses").Uint(m.cache_misses);
  w.Key("cache_coalesced").Uint(m.cache_coalesced);
  w.Key("cache_evictions").Uint(m.cache_evictions);
  w.Key("cache_insert_failures").Uint(m.cache_insert_failures);
  w.Key("cache_uncacheable").Uint(m.cache_uncacheable);
  w.Key("cache_resident_bytes").Uint(m.cache_resident_bytes);
  w.Key("cache_entries").Uint(m.cache_entries);
  w.EndObject();
  w.Key("dynamic").BeginObject();
  w.Key("graph_version").Uint(m.graph_version);
  w.Key("batches_applied").Uint(m.dyn_batches_applied);
  w.Key("batches_rejected").Uint(m.dyn_batches_rejected);
  w.Key("cs_incremental").Uint(m.dyn_cs_incremental);
  w.Key("cs_rebuilds").Uint(m.dyn_cs_rebuilds);
  w.Key("dirty_pairs").Uint(m.dyn_dirty_pairs);
  w.Key("peak_dirty_pairs").Uint(m.dyn_peak_dirty_pairs);
  w.Key("embeddings_created").Uint(m.dyn_embeddings_created);
  w.Key("embeddings_destroyed").Uint(m.dyn_embeddings_destroyed);
  w.Key("active_subscriptions").Uint(m.dyn_active_subscriptions);
  w.Key("resyncs").Uint(m.dyn_resyncs);
  w.Key("notify_latency");
  WriteHistogram(w, m.notify);
  w.Key("publish_ms");
  WriteHistogram(w, m.publish);
  w.EndObject();
  w.Key("persist").BeginObject();
  w.Key("enabled").Bool(m.persist_enabled);
  w.Key("wal_bytes").Uint(m.persist_wal_bytes);
  w.Key("wal_appended_batches").Uint(m.persist_wal_appended_batches);
  w.Key("wal_fsyncs").Uint(m.persist_wal_fsyncs);
  w.Key("snapshots_written").Uint(m.persist_snapshots_written);
  w.Key("persist_errors").Uint(m.persist_errors);
  w.Key("failed").Bool(m.persist_failed);
  w.Key("last_snapshot_ms").Double(m.persist_last_snapshot_ms);
  w.Key("recovery").BeginObject();
  w.Key("recovered").Bool(m.persist_recovered);
  w.Key("snapshot_version").Uint(m.persist_recovery_snapshot_version);
  w.Key("wal_records_replayed").Uint(m.persist_recovery_wal_replayed);
  w.Key("wal_truncated_bytes").Uint(m.persist_recovery_wal_truncated_bytes);
  w.Key("recovery_ms").Double(m.persist_recovery_ms);
  w.Key("load_ms").Double(m.persist_recovery_load_ms);
  w.Key("replay_ms").Double(m.persist_recovery_replay_ms);
  w.Key("build_ms").Double(m.persist_recovery_build_ms);
  w.EndObject();
  w.EndObject();
  w.Key("wait_latency");
  WriteHistogram(w, m.wait);
  w.Key("run_latency");
  WriteHistogram(w, m.run);
  w.Key("total_latency");
  WriteHistogram(w, m.total);
  w.EndObject();
}

std::string ServiceMetricsToJson(const ServiceMetricsSnapshot& m,
                                 int indent) {
  JsonWriter w(indent);
  WriteServiceMetrics(w, m);
  return w.str();
}

}  // namespace daf::obs
