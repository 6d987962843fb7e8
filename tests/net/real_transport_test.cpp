// Unit coverage for the real-transport building blocks that can be
// tested in-process: the wire format, the stream frame reassembler,
// file-backed durability, loopback socket delivery (UDS and TCP), the
// cross-thread wake() and the bounded flush(), and the FaultyTransport
// decorator's drop/partition behavior. The multi-process, kill-9
// behavior is covered by `tools/compreg_loadgen --direct`, not here.
#include "net/real/transport.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "net/net_plan.h"
#include "net/real/durable_file.h"
#include "net/real/fault_transport.h"
#include "net/real/wire.h"

namespace compreg::net::real {
namespace {

using std::chrono::milliseconds;

// A unique scratch directory per test, removed on scope exit.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    char tmpl[] = "/tmp/compreg-real-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~ScratchDir() {
    // Best-effort cleanup: the dir only ever holds sockets + small files.
    const std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  std::string file(const std::string& name) const {
    return path + "/" + name;
  }
};

WireMsg sample_msg() {
  return WireMsg{MsgType::kQueryReply, 7, 0x0102030405060708ull,
                 0x1122334455667788ull, 0xaabbccddeeff0011ull};
}

TEST(WireTest, FrameRoundTrip) {
  std::vector<unsigned char> bytes;
  const WireMsg in = sample_msg();
  append_frame(bytes, in);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + kWireMsgBytes);
  // Length prefix is little-endian kWireMsgBytes.
  EXPECT_EQ(bytes[0], kWireMsgBytes);
  EXPECT_EQ(bytes[1], 0u);
  WireMsg out;
  ASSERT_TRUE(decode_payload(bytes.data() + kFrameHeaderBytes, kWireMsgBytes,
                             out));
  EXPECT_EQ(out, in);
}

TEST(WireTest, DecodeRejectsBadSizeAndType) {
  std::vector<unsigned char> bytes;
  append_frame(bytes, sample_msg());
  WireMsg out;
  EXPECT_FALSE(decode_payload(bytes.data() + kFrameHeaderBytes,
                              kWireMsgBytes - 1, out));
  bytes[kFrameHeaderBytes] = 0;  // type 0: invalid
  EXPECT_FALSE(decode_payload(bytes.data() + kFrameHeaderBytes,
                              kWireMsgBytes, out));
  bytes[kFrameHeaderBytes] = 7;  // kWriteReq: the client vocabulary is valid
  EXPECT_TRUE(decode_payload(bytes.data() + kFrameHeaderBytes,
                             kWireMsgBytes, out));
  EXPECT_EQ(out.type, MsgType::kWriteReq);
  bytes[kFrameHeaderBytes] = 13;  // type past kBusyResp
  EXPECT_FALSE(decode_payload(bytes.data() + kFrameHeaderBytes,
                              kWireMsgBytes, out));
}

TEST(WireTest, FrameReaderReassemblesAcrossArbitraryChunks) {
  std::vector<unsigned char> bytes;
  const WireMsg a = sample_msg();
  WireMsg b = sample_msg();
  b.type = MsgType::kStore;
  b.op = 99;
  append_frame(bytes, a);
  append_frame(bytes, b);
  // Feed one byte at a time: no chunk boundary may confuse reassembly.
  FrameReader reader;
  std::vector<WireMsg> got;
  for (const unsigned char byte : bytes) {
    reader.feed(&byte, 1);
    while (auto msg = reader.next()) got.push_back(*msg);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);
  EXPECT_FALSE(reader.corrupt());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, FrameReaderFlagsCorruptLength) {
  // Length 0 and oversized lengths are both corruption, not messages.
  FrameReader zero;
  const unsigned char zero_len[4] = {0, 0, 0, 0};
  zero.feed(zero_len, 4);
  EXPECT_FALSE(zero.next().has_value());
  EXPECT_TRUE(zero.corrupt());

  FrameReader huge;
  const unsigned char huge_len[4] = {0xff, 0xff, 0xff, 0xff};
  huge.feed(huge_len, 4);
  EXPECT_FALSE(huge.next().has_value());
  EXPECT_TRUE(huge.corrupt());
}

TEST(WireTest, FrameReaderFlagsCorruptPayload) {
  std::vector<unsigned char> bytes;
  append_frame(bytes, sample_msg());
  bytes[kFrameHeaderBytes] = 42;  // clobber the type byte
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
}

TEST(FileDurableTest, FreshFileStartsBlank) {
  ScratchDir dir;
  FileDurable d(dir.file("replica-0.dur"));
  EXPECT_FALSE(d.existed());
  EXPECT_EQ(d.ts(), 0u);
  EXPECT_EQ(d.value(), 0u);
}

TEST(FileDurableTest, PersistThenReopenSeesState) {
  ScratchDir dir;
  const std::string path = dir.file("replica-0.dur");
  {
    FileDurable d(path);
    d.persist(3, 30);
    d.persist(7, 70);
    d.persist(5, 50);  // stale: stable storage never regresses
    EXPECT_EQ(d.ts(), 7u);
    EXPECT_EQ(d.value(), 70u);
  }
  // "Restart": a new instance over the same path.
  FileDurable d(path);
  EXPECT_TRUE(d.existed());
  EXPECT_EQ(d.ts(), 7u);
  EXPECT_EQ(d.value(), 70u);
}

TEST(FileDurableTest, NoTornStateIfTmpFileLeftBehind) {
  // A crash between tmp-write and rename leaves <path>.tmp around; a
  // restart must see the last renamed record, untouched.
  ScratchDir dir;
  const std::string path = dir.file("replica-0.dur");
  {
    FileDurable d(path);
    d.persist(4, 40);
  }
  // Simulate the crash artifact.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "w");
  ASSERT_NE(tmp, nullptr);
  std::fputs("garbage mid-write", tmp);
  std::fclose(tmp);
  FileDurable d(path);
  EXPECT_TRUE(d.existed());
  EXPECT_EQ(d.ts(), 4u);
  EXPECT_EQ(d.value(), 40u);
}

// Wait for a delivery on `rx` while also driving `tx`'s event loop with
// zero-timeout polls — a sender only finishes nonblocking connects and
// flushes its outbox from inside its own poll (in production each
// endpoint polls continuously; a unit test must pump both by hand).
std::optional<Delivery> pump_until(Transport& rx, Transport& tx,
                                   milliseconds budget) {
  const Deadline overall = Deadline::after(budget);
  while (!overall.expired()) {
    (void)tx.poll(Deadline());  // expired deadline: drain I/O, no block
    auto got = rx.poll(Deadline::after(milliseconds(10)));
    if (got) return got;
  }
  return std::nullopt;
}

// One loopback ping over real sockets, single-threaded: endpoint 3 (a
// client id in a 3-replica space) sends to replica 0, which echoes.
void loopback_ping(const TransportConfig& replica_cfg,
                   const TransportConfig& client_cfg) {
  SocketTransport replica(replica_cfg);
  SocketTransport client(client_cfg);

  const WireMsg ping{MsgType::kQuery, 3, 1, 0, 0};
  client.send(0, ping);
  // Replica sees the query; its reply routes over the learned mapping.
  auto got = pump_until(replica, client, milliseconds(2000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 3);
  EXPECT_EQ(got->msg, ping);
  const WireMsg pong{MsgType::kQueryReply, 0, 1, 5, 55};
  replica.send(3, pong);
  auto back = pump_until(client, replica, milliseconds(2000));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src, 0);
  EXPECT_EQ(back->msg, pong);
  EXPECT_GE(client.stats().sent, 1u);
  EXPECT_GE(client.stats().delivered, 1u);
  EXPECT_GE(replica.stats().accepts, 1u);
}

TEST(SocketTransportTest, UdsLoopbackPingPong) {
  ScratchDir dir;
  TransportConfig replica{TransportKind::kUds, 0, 3, dir.path, 0};
  TransportConfig client{TransportKind::kUds, 3, 3, dir.path, 0};
  loopback_ping(replica, client);
}

TEST(SocketTransportTest, TcpLoopbackPingPong) {
  // Port chosen away from the harness defaults; TCP listeners bind
  // 127.0.0.1 only.
  const std::uint16_t port =
      static_cast<std::uint16_t>(49300 + (::getpid() % 128));
  TransportConfig replica{TransportKind::kTcp, 0, 3, "", port};
  TransportConfig client{TransportKind::kTcp, 3, 3, "", port};
  loopback_ping(replica, client);
}

TEST(SocketTransportTest, SendToDeadPeerIsACountedDropNotAnError) {
  ScratchDir dir;
  TransportConfig client_cfg{TransportKind::kUds, 3, 3, dir.path, 0};
  SocketTransport client(client_cfg);
  // Nobody listens at replica 1's socket path.
  client.send(1, WireMsg{MsgType::kQuery, 3, 1, 0, 0});
  EXPECT_FALSE(client.poll(Deadline::after(milliseconds(50))).has_value());
  EXPECT_GE(client.stats().dropped_unreachable, 1u);
}

// wake() from another thread ends a poll that would otherwise block
// forever, and returns nullopt: a wake-up, not a delivery.
TEST(SocketTransportTest, WakeFromAnotherThreadEndsANeverPoll) {
  ScratchDir dir;
  SocketTransport t(TransportConfig{TransportKind::kUds, 0, 1, dir.path, 0});
  std::atomic<bool> polling{false};
  std::thread waker([&] {
    while (!polling.load()) std::this_thread::yield();
    std::this_thread::sleep_for(milliseconds(20));
    t.wake();
  });
  polling.store(true);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(t.poll(Deadline::never()).has_value());
  waker.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(5000));
  EXPECT_EQ(t.stats().delivered, 0u);
}

// A wake that comes before the poll is not lost; wakes do not queue, so
// two of them end one poll and the next one waits out its deadline.
TEST(SocketTransportTest, WakeBeforePollIsNotLost) {
  ScratchDir dir;
  SocketTransport t(TransportConfig{TransportKind::kUds, 3, 3, dir.path, 0});
  t.wake();
  t.wake();
  EXPECT_FALSE(t.poll(Deadline::never()).has_value());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(t.poll(Deadline::after(milliseconds(30))).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, milliseconds(30));
}

// flush() returns as soon as the outbox has reached the kernel: at once
// with nothing queued, and otherwise once the peer has read enough. A
// peer that stops reading holds it only for the bound.
TEST(SocketTransportTest, FlushReturnsWhenTheOutboxDrains) {
  ScratchDir dir;
  SocketTransport replica(
      TransportConfig{TransportKind::kUds, 0, 1, dir.path, 0});
  SocketTransport client(
      TransportConfig{TransportKind::kUds, 1, 1, dir.path, 0});
  EXPECT_TRUE(client.flush(milliseconds(0)));
  // ~1 MB of frames: far more than the socket buffers hold, well under
  // the outbox bound.
  for (int i = 0; i < 20000; ++i) {
    client.send(0, WireMsg{MsgType::kQuery, 1, std::uint64_t(i), 0, 0});
  }
  EXPECT_FALSE(client.flush(milliseconds(20)));  // nobody reads yet
  std::atomic<bool> flushed{false};
  std::uint64_t received = 0;
  std::thread reader([&] {
    while (!flushed.load()) {
      if (replica.poll(Deadline::after(milliseconds(5)))) ++received;
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.flush(milliseconds(10000)));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(10000));
  flushed.store(true);
  reader.join();
  EXPECT_GT(received, 0u);
}

TEST(FaultyTransportTest, FullLossDropsEverySend) {
  ScratchDir dir;
  TransportConfig replica_cfg{TransportKind::kUds, 0, 3, dir.path, 0};
  TransportConfig client_cfg{TransportKind::kUds, 3, 3, dir.path, 0};
  SocketTransport replica(replica_cfg);
  SocketTransport client(client_cfg);
  auto plan = NetFaultPlan::parse("drop:1000");
  ASSERT_TRUE(plan.has_value());
  FaultyTransport lossy(client, *plan, 1,
                        std::chrono::steady_clock::now());
  for (int i = 0; i < 20; ++i) {
    lossy.send(0, WireMsg{MsgType::kQuery, 3, 1, 0, 0});
  }
  EXPECT_EQ(client.stats().dropped_loss, 20u);
  EXPECT_FALSE(replica.poll(Deadline::after(milliseconds(50))).has_value());
}

TEST(FaultyTransportTest, PartitionWindowBlocksBothDirections) {
  ScratchDir dir;
  TransportConfig replica_cfg{TransportKind::kUds, 0, 3, dir.path, 0};
  TransportConfig client_cfg{TransportKind::kUds, 3, 3, dir.path, 0};
  SocketTransport replica(replica_cfg);
  SocketTransport client(client_cfg);
  // Partition isolates replica 0 during [0ms, 10^7 ms) from the epoch:
  // effectively for the whole test.
  auto plan = NetFaultPlan::parse("partition:0+10000000@0");
  ASSERT_TRUE(plan.has_value());
  const auto epoch = std::chrono::steady_clock::now();
  FaultyTransport client_net(client, *plan, 1, epoch);
  FaultyTransport replica_net(replica, *plan, 2, epoch);

  client_net.send(0, WireMsg{MsgType::kQuery, 3, 1, 0, 0});
  EXPECT_EQ(client.stats().dropped_partition, 1u);
  EXPECT_FALSE(
      replica_net.poll(Deadline::after(milliseconds(50))).has_value());

  // Receive-side enforcement: a frame that slipped onto the wire before
  // the window is still eaten at the receiving boundary.
  client.send(0, WireMsg{MsgType::kQuery, 3, 2, 0, 0});  // bypass faults
  EXPECT_FALSE(
      replica_net.poll(Deadline::after(milliseconds(200))).has_value());
  EXPECT_GE(replica.stats().dropped_partition, 1u);
}

// The fault layer hands a wake up instead of polling again: a replica
// that sleeps in poll(Deadline::never()) must still see its SIGTERM.
TEST(FaultyTransportTest, WakeEndsAnUnboundedPoll) {
  ScratchDir dir;
  SocketTransport socket(
      TransportConfig{TransportKind::kUds, 0, 3, dir.path, 0});
  auto plan = NetFaultPlan::parse("delay:500+5");
  ASSERT_TRUE(plan.has_value());
  FaultyTransport net(socket, *plan, 1, std::chrono::steady_clock::now());
  std::atomic<bool> polling{false};
  std::thread waker([&] {
    while (!polling.load()) std::this_thread::yield();
    std::this_thread::sleep_for(milliseconds(20));
    socket.wake();
  });
  polling.store(true);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(net.poll(Deadline::never()).has_value());
  waker.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(5000));
}

TEST(FaultyTransportTest, DelayedMessageStillArrives) {
  ScratchDir dir;
  TransportConfig replica_cfg{TransportKind::kUds, 0, 3, dir.path, 0};
  TransportConfig client_cfg{TransportKind::kUds, 3, 3, dir.path, 0};
  SocketTransport replica(replica_cfg);
  SocketTransport client(client_cfg);
  auto plan = NetFaultPlan::parse("delay:1000+5");
  ASSERT_TRUE(plan.has_value());
  FaultyTransport lossy(client, *plan, 1, std::chrono::steady_clock::now());
  lossy.send(0, WireMsg{MsgType::kQuery, 3, 1, 0, 0});
  EXPECT_EQ(client.stats().delayed, 1u);
  // The hold is 1..5 ms, released from the sender's poll loop.
  EXPECT_FALSE(lossy.poll(Deadline::after(milliseconds(20))).has_value());
  auto got = replica.poll(Deadline::after(milliseconds(2000)));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->msg.op, 1u);
}

}  // namespace
}  // namespace compreg::net::real
