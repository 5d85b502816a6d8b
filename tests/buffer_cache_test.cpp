#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "storage/buffer_cache.hpp"
#include "storage/page.hpp"

namespace vdb::storage {
namespace {

/// In-memory PageStore recording I/O and WAL-rule compliance.
class FakeStore : public PageStore {
 public:
  Status load_page(PageId id, Page* out, sim::IoMode) override {
    loads += 1;
    auto it = pages.find(id);
    if (it == pages.end()) {
      if (fail_missing) {
        return make_error(ErrorCode::kMediaFailure, "missing");
      }
      *out = Page{};  // virgin
      return Status::ok();
    }
    *out = it->second;
    return Status::ok();
  }

  Status store_page(PageId id, Page& page, sim::IoMode,
                    bool) override {
    if (fail_stores) return make_error(ErrorCode::kMediaFailure, "gone");
    stores += 1;
    page.update_checksum();
    pages[id] = page;
    last_stored_lsn = page.lsn();
    return Status::ok();
  }

  std::map<PageId, Page> pages;
  int loads = 0;
  int stores = 0;
  bool fail_missing = false;
  bool fail_stores = false;
  Lsn last_stored_lsn = 0;
};

PageId pid(std::uint32_t block) { return PageId{FileId{0}, block}; }

class BufferCacheTest : public ::testing::Test {
 protected:
  FakeStore store_;
  Lsn flushed_to_ = 0;
  BufferCache cache_{&store_, 4, [this](Lsn lsn) {
                       flushed_to_ = std::max(flushed_to_, lsn);
                     }};
};

TEST_F(BufferCacheTest, MissThenHit) {
  {
    auto ref = cache_.fetch(pid(1));
    ASSERT_TRUE(ref.is_ok());
  }
  EXPECT_EQ(store_.loads, 1);
  {
    auto ref = cache_.fetch(pid(1));
    ASSERT_TRUE(ref.is_ok());
  }
  EXPECT_EQ(store_.loads, 1);  // hit
  EXPECT_EQ(cache_.stats().hits, 1u);
  EXPECT_EQ(cache_.stats().misses, 1u);
}

TEST_F(BufferCacheTest, EvictsLruWhenFull) {
  for (std::uint32_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(cache_.fetch(pid(b)).is_ok());
  }
  // Touch page 0 so page 1 becomes LRU.
  ASSERT_TRUE(cache_.fetch(pid(0)).is_ok());
  ASSERT_TRUE(cache_.fetch(pid(9)).is_ok());  // evicts 1
  EXPECT_EQ(cache_.stats().evictions, 1u);
  const int loads_before = store_.loads;
  ASSERT_TRUE(cache_.fetch(pid(0)).is_ok());  // still resident
  EXPECT_EQ(store_.loads, loads_before);
  ASSERT_TRUE(cache_.fetch(pid(1)).is_ok());  // was evicted: reload
  EXPECT_EQ(store_.loads, loads_before + 1);
}

TEST_F(BufferCacheTest, PinnedPagesNotEvicted) {
  auto p0 = cache_.fetch(pid(0));
  ASSERT_TRUE(p0.is_ok());
  // Fill the rest and force evictions; page 0 is pinned throughout.
  for (std::uint32_t b = 1; b < 10; ++b) {
    ASSERT_TRUE(cache_.fetch(pid(b)).is_ok());
  }
  Page* still = p0.value().page();
  ASSERT_NE(still, nullptr);
  // Fetching 0 again must not reload.
  const int loads = store_.loads;
  ASSERT_TRUE(cache_.fetch(pid(0)).is_ok());
  EXPECT_EQ(store_.loads, loads);
}

TEST_F(BufferCacheTest, AllPinnedFailsFetch) {
  std::vector<PageRef> pins;
  for (std::uint32_t b = 0; b < 4; ++b) {
    auto ref = cache_.fetch(pid(b));
    ASSERT_TRUE(ref.is_ok());
    pins.push_back(std::move(ref).value());
  }
  EXPECT_EQ(cache_.fetch(pid(99)).code(), ErrorCode::kInternal);
}

TEST_F(BufferCacheTest, DirtyEvictionWritesAndRespectsWalRule) {
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    ref.value()->set_lsn(777);
    cache_.mark_dirty(pid(0), 10);
  }
  for (std::uint32_t b = 1; b < 6; ++b) {
    ASSERT_TRUE(cache_.fetch(pid(b)).is_ok());
  }
  EXPECT_GE(store_.stores, 1);
  EXPECT_GE(flushed_to_, 777u);  // log forced before the page hit disk
  EXPECT_TRUE(store_.pages.contains(pid(0)));
  EXPECT_EQ(store_.pages[pid(0)].lsn(), 777u);
}

TEST_F(BufferCacheTest, CheckpointWritesAllDirty) {
  for (std::uint32_t b = 0; b < 3; ++b) {
    auto ref = cache_.fetch(pid(b));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    ref.value()->set_lsn(100 + b);
    cache_.mark_dirty(pid(b), 5);
  }
  EXPECT_EQ(cache_.dirty_count(), 3u);
  auto result = cache_.checkpoint();
  EXPECT_EQ(result.pages_written, 3u);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(cache_.dirty_count(), 0u);
  EXPECT_GE(flushed_to_, 102u);
  // Second checkpoint writes nothing.
  EXPECT_EQ(cache_.checkpoint().pages_written, 0u);
}

TEST_F(BufferCacheTest, CheckpointReportsFailures) {
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(pid(0), 5);
  }
  store_.fail_stores = true;
  auto result = cache_.checkpoint();
  EXPECT_EQ(result.pages_written, 0u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].second.code(), ErrorCode::kMediaFailure);
  EXPECT_EQ(cache_.dirty_count(), 1u);  // stays dirty
}

TEST_F(BufferCacheTest, FlushAgedHonorsCutoff) {
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(pid(0), /*now=*/10);
  }
  {
    auto ref = cache_.fetch(pid(1));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(pid(1), /*now=*/100);
  }
  auto result = cache_.flush_aged(/*older_than=*/50);
  EXPECT_EQ(result.pages_written, 1u);
  EXPECT_EQ(cache_.dirty_count(), 1u);
}

TEST_F(BufferCacheTest, MinDirtyRecLsn) {
  EXPECT_EQ(cache_.min_dirty_rec_lsn(), kInvalidLsn);
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    ref.value()->set_lsn(500);
    cache_.mark_dirty(pid(0), 1);
    // Re-dirty with a higher lsn: rec_lsn keeps the FIRST dirty position.
    ref.value()->set_lsn(900);
    cache_.mark_dirty(pid(0), 2);
  }
  EXPECT_EQ(cache_.min_dirty_rec_lsn(), 500u);
  cache_.checkpoint();
  EXPECT_EQ(cache_.min_dirty_rec_lsn(), kInvalidLsn);
  {
    // Dirty again after flush: rec_lsn resets to the current page lsn.
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->set_lsn(1000);
    cache_.mark_dirty(pid(0), 3);
  }
  EXPECT_EQ(cache_.min_dirty_rec_lsn(), 1000u);
}

TEST_F(BufferCacheTest, DiscardFileDropsFramesWithoutWriting) {
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(pid(0), 1);
  }
  const int stores = store_.stores;
  cache_.discard_file(FileId{0});
  EXPECT_EQ(store_.stores, stores);  // nothing written
  EXPECT_EQ(cache_.dirty_count(), 0u);
}

TEST_F(BufferCacheTest, FlushFileTargetsOneFile) {
  {
    auto ref = cache_.fetch(PageId{FileId{0}, 0});
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(PageId{FileId{0}, 0}, 1);
  }
  {
    auto ref = cache_.fetch(PageId{FileId{1}, 0});
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(PageId{FileId{1}, 0}, 1);
  }
  auto result = cache_.flush_file(FileId{0});
  EXPECT_EQ(result.pages_written, 1u);
  EXPECT_EQ(cache_.dirty_count(), 1u);
}

TEST_F(BufferCacheTest, LastFetchedFastPathSurvivesEviction) {
  // Engage the last-fetched fast path with back-to-back fetches of one
  // page, then evict that page through LRU pressure. The recycled frame
  // must not be served for the old id afterwards.
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    ref.value()->set_lsn(321);
    cache_.mark_dirty(pid(0), 1);
  }
  {
    auto again = cache_.fetch(pid(0));  // fast-path hit
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value()->lsn(), 321u);
  }
  EXPECT_EQ(cache_.stats().hits, 1u);

  // Push page 0 out (capacity 4, LRU order 0,1,2,3 → fetching 4 new pages
  // evicts it first) and recycle its frame for other ids.
  for (std::uint32_t b = 1; b <= 4; ++b) {
    ASSERT_TRUE(cache_.fetch(pid(b)).is_ok());
  }
  EXPECT_GE(cache_.stats().evictions, 1u);

  const int loads = store_.loads;
  auto back = cache_.fetch(pid(0));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(store_.loads, loads + 1);  // reloaded, not stale fast-path frame
  EXPECT_EQ(back.value()->lsn(), 321u);  // dirty eviction preserved it
}

/// PageStore that only records which pages the cache reads and writes, in
/// order. Evictions show up as a dirty store (when the victim was dirty)
/// followed by the miss's load.
class RecordingStore : public PageStore {
 public:
  Status load_page(PageId id, Page* out, sim::IoMode) override {
    events.push_back({'L', id});
    *out = Page{};
    return Status::ok();
  }
  Status store_page(PageId id, Page&, sim::IoMode, bool) override {
    events.push_back({'S', id});
    return Status::ok();
  }
  std::vector<std::pair<char, PageId>> events;
};

/// Reference model of the replacement rule: the victim is the unpinned
/// frame with the smallest last-fetch tick; dirty victims are written,
/// discarded frames are dropped unwritten.
struct LruModel {
  struct Frame {
    std::uint64_t tick = 0;
    int pins = 0;
    bool dirty = false;
  };

  /// Applies one fetch; returns false when every frame is pinned (the
  /// cache refuses the fetch and changes nothing).
  bool fetch(PageId id) {
    tick += 1;
    auto it = frames.find(id);
    if (it != frames.end()) {
      it->second.tick = tick;
      return true;
    }
    if (frames.size() >= capacity) {
      auto victim = frames.end();
      for (auto f = frames.begin(); f != frames.end(); ++f) {
        if (f->second.pins > 0) continue;
        if (victim == frames.end() || f->second.tick < victim->second.tick) {
          victim = f;
        }
      }
      if (victim == frames.end()) return false;
      if (victim->second.dirty) events.push_back({'S', victim->first});
      frames.erase(victim);
    }
    events.push_back({'L', id});
    frames[id] = Frame{tick, 0, false};
    return true;
  }

  size_t capacity = 0;
  std::uint64_t tick = 0;
  std::map<PageId, Frame> frames;
  std::vector<std::pair<char, PageId>> events;
};

// Exact LRU: a seeded random mix of fetches, held pins, dirtying and every
// discard flavour over three times the capacity must evict exactly the
// pages, in exactly the order, that the smallest-last-fetch rule picks. A
// recency list that kept a discarded frame linked would pick a stale or
// freed frame and diverge (or crash).
TEST(BufferCacheLru, EvictionOrderMatchesReferenceModel) {
  constexpr std::uint32_t kCapacity = 8;
  constexpr std::uint32_t kBlocksPerFile = 12;  // 2 files: 3x capacity
  RecordingStore store;
  BufferCache cache(&store, kCapacity, [](Lsn) {});
  LruModel model;
  model.capacity = kCapacity;
  std::vector<PageRef> held;
  Rng rng(20261020);
  auto random_page = [&] {
    return PageId{FileId{static_cast<std::uint32_t>(rng.uniform(0, 1))},
                  static_cast<std::uint32_t>(
                      rng.uniform(0, kBlocksPerFile - 1))};
  };
  auto release = [&](size_t i) {
    model.frames[held[i].id()].pins -= 1;
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
  };
  auto pinned = [&](PageId id) {
    auto it = model.frames.find(id);
    return it != model.frames.end() && it->second.pins > 0;
  };

  for (int step = 0; step < 20000; ++step) {
    const std::int64_t op = rng.uniform(0, 99);
    if (op < 55) {  // fetch, sometimes holding the pin or dirtying
      const PageId id = random_page();
      const bool ok = model.fetch(id);
      auto ref = cache.fetch(id);
      ASSERT_EQ(ref.is_ok(), ok) << "step " << step;
      if (!ok) {
        EXPECT_EQ(ref.code(), ErrorCode::kInternal);
        continue;
      }
      if (rng.chance(0.3)) {
        cache.mark_dirty(id, step);
        model.frames[id].dirty = true;
      }
      if (held.size() < kCapacity && rng.chance(0.25)) {
        model.frames[id].pins += 1;
        held.push_back(std::move(ref).value());
      }
    } else if (op < 75) {  // unpin
      if (!held.empty()) {
        release(static_cast<size_t>(
            rng.uniform(0, static_cast<std::int64_t>(held.size()) - 1)));
      }
    } else if (op < 90) {  // discard one page
      const PageId id = random_page();
      if (pinned(id)) continue;
      cache.discard_page(id);
      model.frames.erase(id);
    } else if (op < 97) {  // discard a file
      const FileId file{static_cast<std::uint32_t>(rng.uniform(0, 1))};
      for (size_t i = held.size(); i-- > 0;) {
        if (held[i].id().file == file) release(i);
      }
      cache.discard_file(file);
      std::erase_if(model.frames,
                    [&](const auto& kv) { return kv.first.file == file; });
    } else {  // discard everything
      while (!held.empty()) release(held.size() - 1);
      cache.discard_all();
      model.frames.clear();
    }
    ASSERT_EQ(store.events.size(), model.events.size()) << "step " << step;
    ASSERT_TRUE(store.events.empty() ||
                store.events.back() == model.events.back())
        << "step " << step;
  }
  EXPECT_EQ(store.events, model.events);
  EXPECT_GT(cache.stats().evictions, 1000u);
}

TEST_F(BufferCacheTest, LoadFailurePropagates) {
  store_.fail_missing = true;
  store_.pages.clear();
  EXPECT_EQ(cache_.fetch(pid(3)).code(), ErrorCode::kMediaFailure);
}

}  // namespace
}  // namespace vdb::storage
