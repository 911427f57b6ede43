#ifndef DAF_SERVICE_CONTEXT_POOL_H_
#define DAF_SERVICE_CONTEXT_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "daf/match_context.h"

namespace daf::service {

/// A fixed-size pool of reusable MatchContexts — the serving-tier face of
/// PR 2's warm-engine contract. Each context accumulates arena blocks and
/// scratch capacity over its first few queries and then serves every later
/// query allocation-free; pooling keeps that warmth across jobs and workers
/// instead of tying it to one thread's lifetime.
///
/// Acquire() hands out an RAII lease; the context returns to the free list
/// when the lease dies. A context serves exactly one lease at a time
/// (MatchContext's own contract), so holding a lease is exclusive access.
/// The free list is LIFO: the most recently returned (warmest) context is
/// leased next. Placement is left to the OS.
class ContextPool {
 public:
  /// Creates `capacity` (>= 1) cold contexts up front; they warm on use.
  /// `retained_bytes_limit` is the footprint-shedding threshold: a context
  /// returning with more than this much retained arena capacity is shrunk
  /// back to the threshold before rejoining the free list, so one oversized
  /// query can't pin its high-water footprint into the pool forever.
  /// 0 (the default) disables shedding — contexts keep everything warm.
  explicit ContextPool(uint32_t capacity, uint64_t retained_bytes_limit = 0);

  ContextPool(const ContextPool&) = delete;
  ContextPool& operator=(const ContextPool&) = delete;

  /// Exclusive access to one pooled context for the lease's lifetime.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { Release(); }

    MatchContext* get() const { return context_; }
    MatchContext* operator->() const { return context_; }
    explicit operator bool() const { return context_ != nullptr; }

    /// Returns the context to the pool early (idempotent).
    void Release();

   private:
    friend class ContextPool;
    Lease(ContextPool* pool, MatchContext* context)
        : pool_(pool), context_(context) {}

    ContextPool* pool_ = nullptr;
    MatchContext* context_ = nullptr;
  };

  /// Blocks until a context is free and leases it.
  Lease Acquire();

  uint32_t capacity() const { return static_cast<uint32_t>(contexts_.size()); }

  /// Contexts currently free (diagnostics; stale by the time you read it).
  uint32_t available() const;

  /// Most contexts ever leased at once (the pool high-water mark).
  uint32_t peak_in_use() const;

 private:
  void Return(MatchContext* context);

  mutable std::mutex mutex_;
  std::condition_variable available_cv_;
  // unique_ptr storage keeps context addresses stable for outstanding
  // leases regardless of vector moves.
  std::vector<std::unique_ptr<MatchContext>> contexts_;
  std::vector<MatchContext*> free_;
  const uint64_t retained_bytes_limit_;
  uint32_t in_use_ = 0;
  uint32_t peak_in_use_ = 0;
};

}  // namespace daf::service

#endif  // DAF_SERVICE_CONTEXT_POOL_H_
