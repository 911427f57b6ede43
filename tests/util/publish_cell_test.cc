#include "util/publish_cell.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace daf {
namespace {

// A published value whose two fields must always agree; a torn or freed
// read shows as a mismatch (and under the sanitizers as a race or a
// use-after-free).
struct Pair {
  uint64_t version;
  uint64_t check;  // version * 3
};

std::shared_ptr<const Pair> MakePair(uint64_t v) {
  return std::make_shared<const Pair>(Pair{v, v * 3});
}

TEST(PublishCellTest, LoadReturnsTheLastStore) {
  PublishCell<Pair> cell;
  EXPECT_EQ(cell.Load(), nullptr);
  const std::shared_ptr<const Pair> first = MakePair(1);
  cell.Store(first);
  EXPECT_EQ(cell.Load().get(), first.get());
  EXPECT_EQ(cell.Load().get(), first.get());
  cell.Store(MakePair(2));
  EXPECT_EQ(cell.Load()->version, 2u);
  // A value a reader still holds outlives its replacement; one nobody
  // holds is released by it (the cell keeps only the current value).
  EXPECT_EQ(first->check, 3u);
  const std::weak_ptr<const Pair> second = cell.Load();
  cell.Store(MakePair(3));
  EXPECT_TRUE(second.expired());
  EXPECT_EQ(cell.Load()->version, 3u);
}

TEST(PublishCellTest, ReadersSeeWholeValuesInStoreOrder) {
  constexpr uint64_t kStores = 2000;
  PublishCell<Pair> cell;
  cell.Store(MakePair(0));
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load()) {
        const std::shared_ptr<const Pair> p = cell.Load();
        if (p == nullptr || p->check != p->version * 3 || p->version < last) {
          errors.fetch_add(1);
        }
        last = p != nullptr ? p->version : last;
      }
    });
  }
  for (uint64_t v = 1; v <= kStores; ++v) cell.Store(MakePair(v));
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(cell.Load()->version, kStores);
}

}  // namespace
}  // namespace daf
