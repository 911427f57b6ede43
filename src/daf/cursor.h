#ifndef DAF_DAF_CURSOR_H_
#define DAF_DAF_CURSOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "daf/engine.h"
#include "graph/graph.h"

namespace daf {

/// Pull-based embedding enumeration: external iteration over the
/// embeddings of `query` in `data`, as an alternative to the push-based
/// `MatchOptions::callback`.
///
///   daf::EmbeddingCursor cursor(query, data);
///   while (auto m = cursor.Next()) {
///     // (*m)[u] is the data vertex matched to query vertex u
///   }
///
/// Implementation: the DAF search runs on a private producer thread and
/// hands embeddings over through a small bounded buffer, so enumeration is
/// demand-driven — abandoning the cursor (destructor or `Close`) stops the
/// search promptly, making "give me the first few matches, lazily" cheap
/// even when billions exist. The cursor is single-consumer; `Next` must
/// not be called concurrently.
class EmbeddingCursor {
 public:
  /// Starts the search. `options.callback` must be empty (the cursor owns
  /// the delivery channel); all other options (limit, order, failing sets,
  /// time limit, injective, cancel token, ...) apply as in DafMatch. A
  /// cancel via `options.cancel` stops the producer mid-search and marks
  /// the final result `cancelled` (unlike Close(), which reports an early
  /// consumer-side stop as `limit_reached`).
  ///
  /// `context` (optional) is the MatchContext the producer's search runs
  /// in; it must outlive the cursor and — since the producer thread uses
  /// it for the cursor's whole lifetime — must not be shared with any
  /// concurrent match run or live cursor. Reusing one context across
  /// *sequential* cursors keeps enumeration allocation-free once warm.
  EmbeddingCursor(const Graph& query, const Graph& data,
                  const MatchOptions& options = {},
                  MatchContext* context = nullptr);

  /// Stops the underlying search if still running.
  ~EmbeddingCursor();

  EmbeddingCursor(const EmbeddingCursor&) = delete;
  EmbeddingCursor& operator=(const EmbeddingCursor&) = delete;

  /// The next embedding (query-vertex-id order), or std::nullopt when the
  /// enumeration is exhausted. Blocks while the producer is working.
  std::optional<std::vector<VertexId>> Next();

  /// Stops the search early; subsequent Next() calls return std::nullopt.
  void Close();

  /// Joins the producer and returns the final MatchResult. If the
  /// enumeration was not exhausted yet, the search is stopped early first
  /// (the result is then marked limit_reached).
  const MatchResult& Finish();

 private:
  struct Channel {
    std::mutex mutex;
    std::condition_variable can_produce;
    std::condition_variable can_consume;
    std::deque<std::vector<VertexId>> buffer;
    bool closed = false;    // consumer went away
    bool finished = false;  // producer done
    static constexpr size_t kCapacity = 64;
  };

  std::shared_ptr<Channel> channel_;
  std::thread producer_;
  MatchResult result_;
  bool joined_ = false;
};

}  // namespace daf

#endif  // DAF_DAF_CURSOR_H_
