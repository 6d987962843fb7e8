// Batcher tests. The read handoff: a batch is the swap-out of the whole
// pending queue (items arriving after the swap wait for the next round),
// stop() drains, and — the property the server's correctness rests on —
// a collect started after the swap yields reads no staler than a fresh
// collect, verified with the funneled register checker on histories
// produced by driving the real batcher. The write handoff: batches
// concatenate to the put order. The completion handoff: put() reports
// the empty-to-nonempty transitions, and a consumer sleeping in poll()
// that is woken on each of them receives every completion.
#include "server/read_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lin/history.h"  // kPendingEnd
#include "lin/register_checker.h"
#include "net/real/transport.h"

namespace compreg::server {
namespace {

using ReadBatcher = Batcher<Admitted>;

Admitted item(std::uint32_t client, std::uint64_t op) {
  Admitted it;
  it.req.is_write = false;
  it.req.client = client;
  it.req.op = op;
  it.t0 = std::chrono::steady_clock::now();
  return it;
}

TEST(ReadBatcherTest, TakeBatchSwapsEntireQueue) {
  ReadBatcher b;
  b.put(item(1, 1));
  b.put(item(2, 1));
  b.put(item(3, 1));
  const std::vector<Admitted> batch = b.take();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(b.try_take().empty());
  EXPECT_EQ(batch[0].req.client, 1u);
  EXPECT_EQ(batch[2].req.client, 3u);
}

TEST(ReadBatcherTest, LateArrivalsWaitForNextRound) {
  // A request that arrives after the swap must not join the in-flight
  // batch — it would be folded into a collect that predates it.
  ReadBatcher b;
  b.put(item(1, 1));
  const auto first = b.take();
  ASSERT_EQ(first.size(), 1u);
  b.put(item(2, 1));  // arrives "while the collect is in flight"
  const auto second = b.take();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].req.client, 2u);
}

TEST(ReadBatcherTest, TryTakeBatchNeverBlocks) {
  ReadBatcher b;
  EXPECT_TRUE(b.try_take().empty());
  b.put(item(7, 3));
  const auto batch = b.try_take();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].req.client, 7u);
  EXPECT_EQ(batch[0].req.op, 3u);
}

TEST(ReadBatcherTest, TakeBatchBlocksUntilEnqueue) {
  ReadBatcher b;
  std::atomic<bool> got{false};
  std::thread worker([&] {
    const auto batch = b.take();
    EXPECT_EQ(batch.size(), 1u);
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  b.put(item(1, 1));
  worker.join();
  EXPECT_TRUE(got.load());
}

TEST(ReadBatcherTest, StopDrainsThenReturnsEmpty) {
  ReadBatcher b;
  b.put(item(1, 1));
  b.put(item(2, 2));
  b.stop();
  // Pending items are still handed out after stop...
  EXPECT_EQ(b.take().size(), 2u);
  // ...and only then does take() report stopped-and-drained.
  EXPECT_TRUE(b.take().empty());
}

TEST(ReadBatcherTest, StopWakesBlockedWorker) {
  ReadBatcher b;
  std::thread worker([&] { EXPECT_TRUE(b.take().empty()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b.stop();
  worker.join();
}

// ---------------------------------------------------------------------------
// Staleness, checker-verified.
//
// The server's batching argument: because a batch is the swap-out of
// the whole pending queue, the shared collect begins strictly after
// every member's enqueue, so each member receives a value no staler
// than a fresh collect it could have started itself. Here we drive the
// real ReadBatcher against a toy register with a logical clock, build
// the funneled RegisterHistory the loadgen would build, and let
// check_register_atomicity_funneled certify the interval placements.

struct ToyRegister {
  std::atomic<std::uint64_t> now{0};       // logical clock
  std::atomic<std::uint64_t> current{0};   // id of the latest write

  std::uint64_t tick() { return now.fetch_add(1) + 1; }
};

TEST(ReadBatcherStalenessTest, BatchedCollectHistoryIsAtomic) {
  ToyRegister reg;
  ReadBatcher b;
  lin::RegisterHistory h;
  std::mutex h_mu;  // history appends from two threads

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    // The funneled single writer: ids are the serialization order.
    for (std::uint64_t id = 1; id <= 200; ++id) {
      const std::uint64_t s = reg.tick();
      reg.current.store(id);
      const std::uint64_t e = reg.tick();
      std::lock_guard<std::mutex> lk(h_mu);
      h.writes.push_back({id, s, e});
    }
    stop_writer.store(true);
  });

  std::thread collector([&] {
    // One shared collect per batch: tick AFTER the swap, then read.
    while (true) {
      const auto batch = b.take();
      if (batch.empty()) break;
      const std::uint64_t collect_start = reg.tick();
      const std::uint64_t seen = reg.current.load();
      const std::uint64_t collect_end = reg.tick();
      (void)collect_start;
      std::lock_guard<std::mutex> lk(h_mu);
      for (const auto& it : batch) {
        // The member's interval: its own enqueue tick (stored in op by
        // the enqueuing loop below) to the collect's completion.
        h.reads.push_back({seen, it.req.op, collect_end});
      }
    }
  });

  // Front-end: enqueue reads concurrently with the writer, stamping the
  // enqueue tick into req.op so the collector can recover the start.
  std::uint64_t next_op = 0;
  while (!stop_writer.load()) {
    Admitted it;
    it.req.is_write = false;
    it.req.client = 1;
    it.req.op = reg.tick();  // enqueue instant = read invocation start
    it.t0 = std::chrono::steady_clock::now();
    b.put(it);
    ++next_op;
    if (next_op % 8 == 0) std::this_thread::yield();
  }
  // At least one read strictly after the final write completed — it
  // must observe the final value, which the checker will verify.
  {
    Admitted it;
    it.req.is_write = false;
    it.req.client = 1;
    it.req.op = reg.tick();
    it.t0 = std::chrono::steady_clock::now();
    b.put(it);
  }
  b.stop();
  writer.join();
  collector.join();

  ASSERT_FALSE(h.reads.empty());
  const auto result = lin::check_register_atomicity_funneled(h);
  EXPECT_TRUE(result.ok) << result.violation;
}

TEST(ReadBatcherStalenessTest, FoldingIntoPredatingCollectIsCaught) {
  // The bug the swap-out discipline prevents: a read that arrived while
  // a collect was in flight gets answered from that older collect. The
  // history this produces — read started after a write completed, but
  // returned the pre-write value — must be rejected by the checker,
  // demonstrating the soak harness would catch a batcher regression.
  lin::RegisterHistory h;
  h.writes.push_back({1, /*start=*/1, /*end=*/4});
  // Collect ran at ticks [2,3] (before the write landed) and saw the
  // initial value; the read below was enqueued at tick 5 — after the
  // write completed — yet was answered from that collect.
  h.reads.push_back({0, /*start=*/5, /*end=*/6});
  const auto result = lin::check_register_atomicity_funneled(h);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("overwritten"), std::string::npos)
      << result.violation;
}

// ---------------------------------------------------------------------------
// The write handoff: the write worker writes each batch in order and
// takes the next one after, so the batches must concatenate to exactly
// the put order — timestamp order stays arrival order.

TEST(BatcherTest, WriteBatchesConcatenateToPutOrder) {
  Batcher<Admitted> b;
  constexpr std::uint64_t kWrites = 2000;
  std::thread front([&] {
    for (std::uint64_t op = 1; op <= kWrites; ++op) {
      Admitted w = item(1, op);
      w.req.is_write = true;
      b.put(w);
      if (op % 16 == 0) std::this_thread::yield();
    }
    b.stop();
  });
  std::vector<std::uint64_t> order;
  std::size_t batches = 0;
  for (auto batch = b.take(); !batch.empty(); batch = b.take()) {
    ++batches;
    for (const Admitted& w : batch) order.push_back(w.req.op);
  }
  front.join();
  ASSERT_EQ(order.size(), kWrites);
  for (std::uint64_t i = 0; i < kWrites; ++i) EXPECT_EQ(order[i], i + 1);
  EXPECT_GE(batches, 1u);
}

// ---------------------------------------------------------------------------
// The completion handoff: the front-end sleeps in poll(), not on the
// condvar, so a producer wakes it exactly when its put() lands in an
// empty queue.

TEST(BatcherTest, PutReportsEmptyToNonEmptyTransitions) {
  Batcher<int> b;
  EXPECT_TRUE(b.put(1));
  EXPECT_FALSE(b.put(2));
  EXPECT_EQ(b.try_take().size(), 2u);
  EXPECT_TRUE(b.put(3));
}

TEST(BatcherTest, CompletionsWakeAPollingConsumer) {
  // Two workers post completions and wake the consumer only on an
  // empty-to-nonempty put, as Server::complete() does; the consumer
  // sleeps in poll(Deadline::never()) between drains. A lost wake-up
  // would hang this test instead of passing it.
  net::real::TransportConfig cfg;
  cfg.self = 1;
  cfg.replicas = 1;  // a client endpoint: binds nothing
  net::real::SocketTransport front(cfg);
  Batcher<int> done;
  constexpr int kPerWorker = 3000;
  auto worker = [&](int base) {
    for (int i = 0; i < kPerWorker; ++i) {
      if (done.put(base + i)) front.wake();
      if (i % 64 == 0) std::this_thread::yield();
    }
  };
  std::thread w1(worker, 0);
  std::thread w2(worker, kPerWorker);
  std::vector<int> got;
  while (got.size() < 2u * kPerWorker) {
    for (int c : done.try_take()) got.push_back(c);
    if (got.size() < 2u * kPerWorker) {
      EXPECT_FALSE(front.poll(net::Deadline::never()).has_value());
    }
  }
  w1.join();
  w2.join();
  std::sort(got.begin(), got.end());
  for (int i = 0; i < 2 * kPerWorker; ++i) ASSERT_EQ(got[i], i);
}

}  // namespace
}  // namespace compreg::server
