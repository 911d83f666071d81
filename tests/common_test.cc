// Unit tests for src/common: bitmap, disjoint set, bucket queue, rng,
// strings, table printer, flags, serialization, check macros, and the
// serving substrate (MPSC queue + future/promise).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/bucket_queue.h"
#include "common/check.h"
#include "common/disjoint_set.h"
#include "common/flags.h"
#include "common/future.h"
#include "common/mpsc_queue.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"

namespace tsd {
namespace {

// ---------------------------------------------------------------- Check

TEST(CheckTest, PassingCheckDoesNothing) { TSD_CHECK(1 + 1 == 2); }

TEST(CheckTest, FailingCheckThrowsCheckError) {
  EXPECT_THROW(TSD_CHECK(false), CheckError);
}

TEST(CheckTest, FailingCheckMessageIncludesCondition) {
  try {
    TSD_CHECK_MSG(2 > 3, "math is broken: " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("2 > 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("math is broken: 42"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------- Bitmap

TEST(BitmapTest, SetTestClear) {
  Bitmap b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.Test(0));
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.CountOnes(), 3u);
}

TEST(BitmapTest, ResizeClearsBits) {
  Bitmap b(10);
  b.Set(3);
  b.Resize(20);
  EXPECT_FALSE(b.Test(3));
  EXPECT_EQ(b.CountOnes(), 0u);
}

TEST(BitmapTest, AndPopcountMatchesManualIntersection) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t size = 1 + rng() % 300;
    Bitmap a(size);
    Bitmap b(size);
    std::vector<char> va(size, 0);
    std::vector<char> vb(size, 0);
    for (std::size_t i = 0; i < size; ++i) {
      if (rng() % 2) {
        a.Set(i);
        va[i] = 1;
      }
      if (rng() % 3 == 0) {
        b.Set(i);
        vb[i] = 1;
      }
    }
    std::size_t expected = 0;
    for (std::size_t i = 0; i < size; ++i) expected += va[i] && vb[i];
    EXPECT_EQ(a.AndPopcount(b), expected);
    EXPECT_EQ(b.AndPopcount(a), expected);
  }
}

TEST(BitmapTest, ForEachCommonBitVisitsExactIntersectionAscending) {
  Bitmap a(200);
  Bitmap b(200);
  for (std::size_t i : {3u, 64u, 65u, 127u, 128u, 199u}) a.Set(i);
  for (std::size_t i : {3u, 65u, 128u, 150u}) b.Set(i);
  std::vector<std::size_t> visited;
  a.ForEachCommonBit(b, [&](std::size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, (std::vector<std::size_t>{3, 65, 128}));
}

TEST(BitmapTest, ForEachSetBitAscending) {
  Bitmap a(100);
  for (std::size_t i : {0u, 63u, 64u, 99u}) a.Set(i);
  std::vector<std::size_t> visited;
  a.ForEachSetBit([&](std::size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 63, 64, 99}));
}

// ---------------------------------------------------------------- DSU

TEST(DisjointSetTest, SingletonsAreDistinct) {
  DisjointSet dsu(4);
  EXPECT_EQ(dsu.NumSets(), 4u);
  EXPECT_FALSE(dsu.Connected(0, 1));
  EXPECT_EQ(dsu.SetSize(2), 1u);
}

TEST(DisjointSetTest, UnionMergesAndCounts) {
  DisjointSet dsu(6);
  EXPECT_TRUE(dsu.Union(0, 1));
  EXPECT_TRUE(dsu.Union(1, 2));
  EXPECT_FALSE(dsu.Union(0, 2));  // already merged
  EXPECT_TRUE(dsu.Connected(0, 2));
  EXPECT_EQ(dsu.SetSize(1), 3u);
  EXPECT_EQ(dsu.NumSets(), 4u);  // {0,1,2} {3} {4} {5}
}

TEST(DisjointSetTest, ResetRestoresSingletons) {
  DisjointSet dsu(3);
  dsu.Union(0, 2);
  dsu.Reset(5);
  EXPECT_EQ(dsu.NumSets(), 5u);
  EXPECT_FALSE(dsu.Connected(0, 2));
}

TEST(DisjointSetTest, RandomizedAgainstNaiveLabels) {
  std::mt19937 rng(11);
  const std::uint32_t n = 64;
  DisjointSet dsu(n);
  std::vector<std::uint32_t> label(n);
  std::iota(label.begin(), label.end(), 0U);
  for (int op = 0; op < 500; ++op) {
    const std::uint32_t a = rng() % n;
    const std::uint32_t b = rng() % n;
    const bool naive_distinct = label[a] != label[b];
    EXPECT_EQ(dsu.Union(a, b), naive_distinct);
    if (naive_distinct) {
      const std::uint32_t from = label[b];
      const std::uint32_t to = label[a];
      for (auto& l : label) {
        if (l == from) l = to;
      }
    }
    const std::uint32_t c = rng() % n;
    const std::uint32_t d = rng() % n;
    EXPECT_EQ(dsu.Connected(c, d), label[c] == label[d]);
  }
}

// ---------------------------------------------------------------- BucketQueue

TEST(BucketQueueTest, PopsInNondecreasingKeyOrder) {
  std::vector<std::uint32_t> keys = {5, 1, 3, 3, 0, 7};
  BucketQueue q(keys);
  std::vector<std::uint32_t> popped_keys;
  while (!q.Empty()) {
    const auto id = q.PopMin();
    popped_keys.push_back(q.Key(id));
  }
  EXPECT_TRUE(std::is_sorted(popped_keys.begin(), popped_keys.end()));
  EXPECT_EQ(popped_keys.size(), keys.size());
}

TEST(BucketQueueTest, DecreaseKeyMovesElementEarlier) {
  std::vector<std::uint32_t> keys = {4, 4, 4, 0};
  BucketQueue q(keys);
  EXPECT_EQ(q.PopMin(), 3u);
  q.DecreaseKeyClamped(1, 0);  // key 4 -> 3
  const auto next = q.PopMin();
  EXPECT_EQ(next, 1u);
  EXPECT_EQ(q.Key(1), 3u);
}

TEST(BucketQueueTest, ClampPreventsDecreaseBelowFloor) {
  std::vector<std::uint32_t> keys = {2, 5};
  BucketQueue q(keys);
  q.DecreaseKeyClamped(0, 2);  // key == floor: no-op
  EXPECT_EQ(q.Key(0), 2u);
  q.DecreaseKeyClamped(1, 2);
  EXPECT_EQ(q.Key(1), 4u);
}

// Regression test for the 32-bit capacity guard: Init's id loop and the
// pos_/order_/head_ arrays are all std::uint32_t, so element counts beyond
// 2^32 - 1 used to hang (the uint32 loop variable can never reach n) and
// truncate. The guard must fire instead. Allocating 2^32 keys is not
// unit-test material, so the guard is exercised through the same
// CheckCapacity entry point Init calls.
TEST(BucketQueueTest, CapacityGuardRejectsCountsBeyond32Bits) {
  EXPECT_EQ(BucketQueue::kMaxElements,
            std::numeric_limits<std::uint32_t>::max());
  EXPECT_NO_THROW(BucketQueue::CheckCapacity(0));
  EXPECT_NO_THROW(BucketQueue::CheckCapacity(BucketQueue::kMaxElements));
  EXPECT_THROW(BucketQueue::CheckCapacity(BucketQueue::kMaxElements + 1),
               CheckError);
  EXPECT_THROW(BucketQueue::CheckCapacity(std::size_t{1} << 33), CheckError);
}

// Simulates a peeling workload and checks against a naive priority model.
TEST(BucketQueueTest, RandomizedPeelingAgainstNaiveModel) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t n = 50;
    std::vector<std::uint32_t> keys(n);
    for (auto& k : keys) k = rng() % 12;
    BucketQueue q(keys);
    std::vector<std::uint32_t> naive = keys;
    std::vector<char> removed(n, 0);
    std::uint32_t level = 0;
    while (!q.Empty()) {
      // Naive min among live elements (ties: any); compare key values only.
      std::uint32_t naive_min = UINT32_MAX;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!removed[i]) naive_min = std::min(naive_min, naive[i]);
      }
      const auto id = q.PopMin();
      level = std::max(level, q.Key(id));
      EXPECT_EQ(q.Key(id), std::max(naive_min, level));
      removed[id] = 1;
      // Random decrements on a few live elements.
      for (int d = 0; d < 3; ++d) {
        const std::uint32_t target = rng() % n;
        if (removed[target]) continue;
        q.DecreaseKeyClamped(target, level);
        if (naive[target] > level) --naive[target];
      }
    }
  }
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) differences += a() != b();
  EXPECT_GT(differences, 0);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const auto x = rng.UniformInRange(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyRoughlyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(1536), "1.5KB");
  EXPECT_EQ(HumanBytes(34ull << 20), "34.0MB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3.00GB");
}

TEST(StringsTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(0.0000005), "0.5us");
  EXPECT_EQ(HumanSeconds(0.0070), "7.0ms");
  EXPECT_EQ(HumanSeconds(4.9), "4.90s");
  EXPECT_EQ(HumanSeconds(600), "10.0min");
  EXPECT_EQ(HumanSeconds(9000), "2.50h");
}

TEST(StringsTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1624481), "1,624,481");
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a\tbb  ccc "),
            (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

// ---------------------------------------------------------------- Table

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"Name", "Value"});
  t.Row("x", std::uint64_t{12345});
  t.Row("longer-name", 1.5);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| Name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
}

TEST(TableTest, RejectsWrongArity) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), CheckError);
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--k=4", "--name=gowalla", "--verbose",
                        "pos1"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 0), 4);
  EXPECT_EQ(flags.GetString("name", ""), "gowalla");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"pos1"}));
  EXPECT_EQ(flags.GetInt("missing", 17), 17);
}

TEST(FlagsTest, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--k=abc"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_THROW(flags.GetInt("k", 0), CheckError);
}

TEST(FlagsTest, GetIntInRangeRejectsValuesOutsideTheRange) {
  const char* argv[] = {"prog", "--low=0", "--high=4294967296", "--ok=7",
                        "--huge=99999999999999999999"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetIntInRange("ok", 1, 1, 7), 7);
  EXPECT_EQ(flags.GetIntInRange("missing", 3, 1, 7), 3);
  EXPECT_THROW(flags.GetIntInRange("low", 1, 1, 7), FlagError);
  EXPECT_THROW(flags.GetIntInRange("high", 1, 1, UINT32_MAX), FlagError);
  try {
    flags.GetIntInRange("huge", 1, 1, 64);
    FAIL() << "no FlagError";
  } catch (const FlagError& e) {
    // The raw text, not the saturated parse.
    EXPECT_EQ(std::string(e.what()),
              "--huge must be an integer in [1, 64] (got "
              "99999999999999999999)");
  }
}

// ---------------------------------------------------------------- MpscQueue

TEST(MpscQueueTest, FifoSingleProducer) {
  MpscQueue<int> queue;
  // The test body plays both roles; it is the only thread, so it may claim
  // the consumer capability for the thread-safety analysis.
  queue.AssertConsumer();
  EXPECT_TRUE(queue.Empty());
  for (int i = 0; i < 100; ++i) queue.Push(i);
  EXPECT_FALSE(queue.Empty());
  int value = -1;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.TryPop(&value));
    EXPECT_EQ(value, i);
  }
  EXPECT_FALSE(queue.TryPop(&value));
  EXPECT_TRUE(queue.Empty());
}

TEST(MpscQueueTest, MoveOnlyPayload) {
  MpscQueue<std::unique_ptr<int>> queue;
  queue.AssertConsumer();  // single-threaded test body
  queue.Push(std::make_unique<int>(42));
  std::unique_ptr<int> out;
  ASSERT_TRUE(queue.TryPop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

TEST(MpscQueueTest, MultiProducerPreservesPerProducerOrder) {
  // 4 producers × 500 values; the consumer must see every value exactly
  // once and each producer's values in its push order. Runs under the TSan
  // CI job, so publication races fail loudly.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  MpscQueue<std::pair<int, int>> queue;  // (producer, sequence)
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) queue.Push({p, i});
    });
  }
  // The gtest main thread is the single consumer; producers only Push.
  queue.AssertConsumer();
  std::vector<int> next_expected(kProducers, 0);
  int popped = 0;
  std::pair<int, int> item;
  while (popped < kProducers * kPerProducer) {
    if (queue.TryPop(&item)) {
      EXPECT_EQ(item.second, next_expected[item.first])
          << "producer " << item.first;
      ++next_expected[item.first];
      ++popped;
    } else {
      queue.ConsumerWait([&] {
        queue.AssertConsumer();  // same thread; lambdas are analyzed alone
        return !queue.Empty();
      });
    }
  }
  for (std::thread& t : producers) t.join();
  EXPECT_FALSE(queue.TryPop(&item));
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

// ---------------------------------------------------------------- Future

TEST(FutureTest, GetReturnsSetValue) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  EXPECT_FALSE(future.Ready());
  promise.Set(7);
  EXPECT_TRUE(future.Ready());
  EXPECT_EQ(future.Get(), 7);
}

TEST(FutureTest, GetBlocksUntilSetFromAnotherThread) {
  Promise<std::string> promise;
  Future<std::string> future = promise.GetFuture();
  std::thread producer([&promise] { promise.Set("done"); });
  EXPECT_EQ(future.Get(), "done");  // blocks until the producer sets
  producer.join();
}

TEST(FutureTest, MovesValueOut) {
  Promise<std::unique_ptr<int>> promise;
  Future<std::unique_ptr<int>> future = promise.GetFuture();
  promise.Set(std::make_unique<int>(9));
  std::unique_ptr<int> value = future.Get();
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 9);
}

TEST(FutureTest, AbandonedPromiseFailsGetLoudly) {
  Future<int> future;
  {
    Promise<int> promise;
    future = promise.GetFuture();
  }  // destroyed unfulfilled
  EXPECT_THROW(future.Get(), CheckError);
}

TEST(MpscQueueTest, NotifyParkTortureExercisesDekkerFastPath) {
  // Torture for the consumer_parked_ Dekker handshake: the consumer cycles
  // park/unpark thousands of times (it waits on every empty observation)
  // while producers interleave pushes with yields, and a dedicated notifier
  // thread hammers NotifyOne() the whole time — so both NotifyOne paths run
  // hot concurrently: the not-parked fast path (seq_cst fence + relaxed
  // load, no mutex) and the parked mutex handoff. Run under the TSan CI
  // job; a lost wakeup hangs the test, a publication race trips TSan.
  // Every value must arrive exactly once, per-producer FIFO.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2500;
  MpscQueue<std::pair<int, int>> queue;  // (producer, sequence)
  std::atomic<int> producers_done{0};
  std::atomic<bool> stop_notifier{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &producers_done, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.Push({p, i});
        // Give the consumer a window to drain and park again, so pushes
        // land on parked AND unparked consumers across the run.
        if ((i & 63) == 0) std::this_thread::yield();
      }
      producers_done.fetch_add(1);
    });
  }
  std::thread notifier([&queue, &stop_notifier] {
    while (!stop_notifier.load()) {
      queue.NotifyOne();  // mostly hits the not-parked fast path
      std::this_thread::yield();
    }
  });

  // The gtest main thread is the single consumer; producers and the
  // notifier never touch the consumer side.
  queue.AssertConsumer();
  std::vector<int> next_expected(kProducers, 0);
  int popped = 0;
  std::pair<int, int> item;
  while (popped < kProducers * kPerProducer) {
    if (queue.TryPop(&item)) {
      ASSERT_EQ(item.second, next_expected[item.first])
          << "producer " << item.first;
      ++next_expected[item.first];
      ++popped;
    } else {
      queue.ConsumerWait([&] {
        queue.AssertConsumer();  // same thread; lambdas are analyzed alone
        return !queue.Empty() || producers_done.load() == kProducers;
      });
    }
  }
  stop_notifier.store(true);
  for (std::thread& t : producers) t.join();
  notifier.join();
  EXPECT_FALSE(queue.TryPop(&item));
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

TEST(FutureTest, AbandonRacesBlockedGet) {
  // A promise abandoned (destroyed unfulfilled) WHILE the consumer is
  // inside Get() must turn the wait into a hard CheckError, never a hang or
  // a use-after-free of the state's cv — the getter holds the state alive
  // through a shared_ptr it consumed before blocking. Alternate fulfil and
  // abandon across iterations so both outcomes race a concurrent Get.
  for (int iter = 0; iter < 300; ++iter) {
    std::optional<Promise<int>> promise;
    promise.emplace();
    Future<int> future = promise->GetFuture();
    std::atomic<int> outcome{0};
    std::thread getter([&future, &outcome] {
      try {
        outcome.store(future.Get());
      } catch (const CheckError&) {
        outcome.store(-1);
      }
    });
    if ((iter & 1) == 0) {
      promise.reset();  // abandon: races the getter entering wait()
    } else {
      promise->Set(iter);
    }
    getter.join();
    EXPECT_EQ(outcome.load(), (iter & 1) == 0 ? -1 : iter);
  }
}

TEST(FutureTest, MoveAssignAbandonRacesBlockedGet) {
  // Same race through the move-assignment abandon path (the PR 4 review
  // fix): assigning a fresh promise over an engaged one must wake and fail
  // a Get() that is concurrently blocked on the old state.
  for (int iter = 0; iter < 200; ++iter) {
    Promise<int> promise;
    Future<int> future = promise.GetFuture();
    std::atomic<bool> failed{false};
    std::thread getter([&future, &failed] {
      try {
        future.Get();
      } catch (const CheckError&) {
        failed.store(true);
      }
    });
    promise = Promise<int>();  // abandons the old state mid-Get
    getter.join();
    EXPECT_TRUE(failed.load());
  }
}

TEST(FutureTest, OnReadyFiresOnceOnSetAndDoesNotConsumeValue) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  std::atomic<int> fired{0};
  future.OnReady([&fired] { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 0);  // not before fulfillment
  promise.Set(21);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(future.Ready());  // the hook observed, it did not consume
  EXPECT_EQ(future.Get(), 21);
}

TEST(FutureTest, OnReadyAfterResolutionFiresInline) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  promise.Set(5);
  bool fired = false;
  future.OnReady([&fired] { fired = true; });
  EXPECT_TRUE(fired);  // ran inline, before OnReady returned
  EXPECT_EQ(future.Get(), 5);
}

TEST(FutureTest, OnReadyFiresOnAbandonment) {
  // The epoll server parks futures behind an eventfd hook; a consumer that
  // dies without answering must still wake the loop, which then surfaces
  // the abandonment through Get().
  std::optional<Promise<int>> promise;
  promise.emplace();
  Future<int> future = promise->GetFuture();
  bool fired = false;
  future.OnReady([&fired] { fired = true; });
  promise.reset();
  EXPECT_TRUE(fired);
  EXPECT_THROW(future.Get(), CheckError);
}

TEST(FutureTest, OnReadyReregistrationReplacesUnfiredHook) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  future.OnReady([&first] { first.fetch_add(1); });
  future.OnReady([&second] { second.fetch_add(1); });  // replaces, not adds
  promise.Set(1);
  EXPECT_EQ(first.load(), 0);
  EXPECT_EQ(second.load(), 1);
}

TEST(FutureTest, OnReadyRacesSetFromAnotherThread) {
  // Whichever side wins the race, the hook must fire exactly once — either
  // inline (Set got there first) or on the setting thread.
  for (int iter = 0; iter < 300; ++iter) {
    Promise<int> promise;
    Future<int> future = promise.GetFuture();
    std::atomic<int> fired{0};
    std::thread setter([&promise, iter] { promise.Set(iter); });
    future.OnReady([&fired] { fired.fetch_add(1); });
    setter.join();
    EXPECT_EQ(fired.load(), 1) << "iter " << iter;
    EXPECT_EQ(future.Get(), iter);
  }
}

TEST(FutureTest, MoveAssignmentAbandonsOldState) {
  // Move-assigning over an engaged, unfulfilled promise must abandon the
  // old state (hard Get() failure), not silently drop it and hang a waiter.
  Promise<int> promise;
  Future<int> old_future = promise.GetFuture();
  Promise<int> replacement;
  Future<int> new_future = replacement.GetFuture();
  promise = std::move(replacement);
  EXPECT_THROW(old_future.Get(), CheckError);
  promise.Set(11);  // the adopted state still works normally
  EXPECT_EQ(new_future.Get(), 11);
}

}  // namespace
}  // namespace tsd
