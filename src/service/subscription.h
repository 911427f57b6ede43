#ifndef DAF_SERVICE_SUBSCRIPTION_H_
#define DAF_SERVICE_SUBSCRIPTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "daf/dynamic_cs.h"
#include "daf/engine.h"
#include "dyn/delta_enumerate.h"
#include "dyn/update_batch.h"
#include "graph/graph.h"

namespace daf::service {

/// One embedding entering or leaving the result set of a standing query.
struct EmbeddingDelta {
  bool created = false;  // false = destroyed
  std::vector<VertexId> embedding;  // embedding[u] = data vertex for query u
};

/// The deltas one applied update batch produced for one subscription,
/// stamped with the graph version the batch advanced to. A consumer that
/// ran the standing query once at the subscription version and then folds
/// every DeltaBatch in version order holds the exact current result set.
///
/// `resync` set means the deltas for this version step were LOST — the
/// subscription's bounded queue overflowed, or an injected subscriber_notify
/// fault dropped the delivery. The queue was cleared; `deltas` is empty and
/// the consumer must re-run the standing query from scratch at `version`
/// before trusting later batches.
struct DeltaBatch {
  uint64_t version = 0;
  bool resync = false;
  std::vector<EmbeddingDelta> deltas;
};

/// Outcome of MatchService::ApplyUpdates: the DeltaGraph's ApplyResult
/// counts plus the standing-query fan-out totals.
struct UpdateOutcome {
  bool ok = true;  // false => `error`; the graph and every CS are unchanged
  std::string error;
  uint64_t version = 0;  // graph version after the batch
  uint64_t inserted_edges = 0;
  uint64_t removed_edges = 0;
  uint64_t added_vertices = 0;
  uint64_t removed_vertices = 0;
  uint64_t ignored_ops = 0;
  uint64_t embeddings_created = 0;    // across all subscriptions
  uint64_t embeddings_destroyed = 0;  // across all subscriptions
  uint64_t subscriptions_notified = 0;
  uint64_t resyncs = 0;  // notifications degraded to a resync marker
  /// Writer time spent making the new version visible to jobs: the eager
  /// materialization, the fold of the overlay and the atomic publish.
  double publish_ms = 0;
};

namespace internal {

/// Shared state of one standing query, owned jointly by the MatchService
/// (which feeds it from ApplyUpdates) and every SubscriptionHandle copy.
/// The maintenance members (cs, enumerator) are touched only by the
/// service's update path, which is serialized by its update mutex; the
/// delivery queue has its own lock so consumers never contend with
/// matching work.
struct SubscriptionState {
  uint64_t id = 0;
  bool ok = true;       // false => rejected at Subscribe; `error` says why
  std::string error;
  Graph query;
  MatchOptions options;  // injective etc.; search-side knobs are ignored
  uint64_t subscribed_version = 0;

  // Maintained across batches by the update path (update-mutex serialized).
  // Declared in this order: the enumerator holds references to `query` and
  // `*cs` and must die first.
  std::unique_ptr<dyn::DynamicCandidateSpace> cs;
  std::unique_ptr<dyn::DeltaEnumerator> enumerator;

  std::atomic<bool> cancelled{false};
  /// The service's active-subscription count (null when rejected); the
  /// first Unsubscribe decrements it.
  std::shared_ptr<std::atomic<size_t>> active_count;

  // Delivery queue (bounded; overflow clears it and marks resync).
  std::mutex mutex;
  std::deque<DeltaBatch> pending;
  size_t max_pending = 64;
  uint64_t delivered_batches = 0;
  uint64_t dropped_batches = 0;  // batches lost to overflow/fault resyncs
};

using SubscriptionStatePtr = std::shared_ptr<SubscriptionState>;

/// Enqueues `batch` onto the subscription, enforcing the bounded-queue
/// overflow semantics: when the queue is full the whole backlog is dropped
/// and replaced by a single resync marker at the batch's version (the
/// consumer fell too far behind for the deltas to be useful). Returns false
/// when the push degraded to a resync.
bool PushDeltaBatch(SubscriptionState& sub, DeltaBatch batch);

}  // namespace internal

/// The consumer's view of one standing query. Cheap to copy (all copies
/// share the subscription state) and safe to keep after the MatchService is
/// gone — a dead service simply never enqueues again.
///
/// Delivery model: MatchService::ApplyUpdates is synchronous, so by the
/// time it returns, every active subscription's queue holds the batch's
/// DeltaBatch (or a resync marker). Consumers poll; there is no callback
/// thread to misbehave on.
///
/// Thread safety: all methods may be called from any thread; Poll/Drain are
/// naturally single-consumer (concurrent pollers see disjoint batches).
class SubscriptionHandle {
 public:
  /// An empty handle (valid() false); Subscribe never returns one.
  SubscriptionHandle() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const { return state_->id; }

  /// False when Subscribe rejected the query; `error()` says why. A
  /// rejected subscription never receives batches.
  bool ok() const { return state_->ok; }
  const std::string& error() const { return state_->error; }

  /// Graph version the subscription was registered at. Run the standing
  /// query once against the service snapshot at this version for the
  /// initial result set; every later batch is a delta on top of it.
  uint64_t subscribed_version() const { return state_->subscribed_version; }

  /// True until Unsubscribe (service shutdown does not flip it, it only
  /// stops producing batches).
  bool active() const {
    return state_->ok && !state_->cancelled.load(std::memory_order_acquire);
  }

  /// Deregisters the standing query: no further batches are enqueued, and
  /// the service drops its reference on the next update. Already-queued
  /// batches stay pollable. Idempotent.
  void Unsubscribe();

  /// Pops the oldest pending DeltaBatch (nullopt when none). Non-blocking.
  std::optional<DeltaBatch> Poll();

  /// Pops everything pending, oldest first. Non-blocking.
  std::vector<DeltaBatch> Drain();

  /// Batches currently queued.
  size_t PendingBatches() const;

 private:
  friend class MatchService;
  explicit SubscriptionHandle(internal::SubscriptionStatePtr state)
      : state_(std::move(state)) {}

  internal::SubscriptionStatePtr state_;
};

}  // namespace daf::service

#endif  // DAF_SERVICE_SUBSCRIPTION_H_
