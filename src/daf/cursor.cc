#include "daf/cursor.h"

#include <cassert>
#include <utility>

namespace daf {

EmbeddingCursor::EmbeddingCursor(const Graph& query, const Graph& data,
                                 const MatchOptions& options,
                                 MatchContext* context)
    : channel_(std::make_shared<Channel>()) {
  assert(!options.callback && "the cursor owns the embedding callback");
  std::shared_ptr<Channel> channel = channel_;
  MatchOptions producer_options = options;
  producer_options.callback = [channel](std::span<const VertexId> embedding) {
    std::unique_lock<std::mutex> lock(channel->mutex);
    channel->can_produce.wait(lock, [&] {
      return channel->closed || channel->buffer.size() < Channel::kCapacity;
    });
    if (channel->closed) return false;  // consumer abandoned the cursor
    channel->buffer.emplace_back(embedding.begin(), embedding.end());
    channel->can_consume.notify_one();
    return true;
  };
  // The producer captures `query`/`data` by reference: the cursor's
  // contract (like Backtracker's) is that both, and any `context`, outlive
  // it.
  producer_ = std::thread([this, &query, &data, producer_options, channel,
                           context] {
    MatchResult result =
        context != nullptr ? DafMatch(query, data, producer_options, context)
                           : DafMatch(query, data, producer_options);
    {
      std::lock_guard<std::mutex> lock(channel->mutex);
      channel->finished = true;
      channel->can_consume.notify_all();
    }
    result_ = std::move(result);
  });
}

EmbeddingCursor::~EmbeddingCursor() {
  Close();
  if (producer_.joinable()) producer_.join();
}

std::optional<std::vector<VertexId>> EmbeddingCursor::Next() {
  std::unique_lock<std::mutex> lock(channel_->mutex);
  channel_->can_consume.wait(lock, [&] {
    return !channel_->buffer.empty() || channel_->finished ||
           channel_->closed;
  });
  if (!channel_->buffer.empty()) {
    std::vector<VertexId> embedding = std::move(channel_->buffer.front());
    channel_->buffer.pop_front();
    channel_->can_produce.notify_one();
    return embedding;
  }
  return std::nullopt;
}

void EmbeddingCursor::Close() {
  std::lock_guard<std::mutex> lock(channel_->mutex);
  channel_->closed = true;
  channel_->can_produce.notify_all();
  channel_->can_consume.notify_all();
}

const MatchResult& EmbeddingCursor::Finish() {
  if (!joined_) {
    {
      std::lock_guard<std::mutex> lock(channel_->mutex);
      // Calling Finish() before exhaustion stops the search early (the
      // result is then marked limit_reached via the callback protocol).
      if (!channel_->finished) channel_->closed = true;
      channel_->can_produce.notify_all();
    }
    if (producer_.joinable()) producer_.join();
    joined_ = true;
  }
  return result_;
}

}  // namespace daf
