// In-process Server tests: the wake-driven front-end loop, the drain and
// flush at shutdown, and the write worker's timestamp seeding. The
// server runs on a thread of this test; where a fleet is needed, its
// replicas are compreg_server processes in --replica mode.
#include "server/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "fleet_common.h"
#include "net/real/client.h"
#include "server/client.h"
#include "server/protocol.h"

namespace compreg::server {
namespace {

using net::real::MsgType;
using net::real::WireMsg;
using std::chrono::milliseconds;
using telemetry::Counter;

struct ScratchDir {
  std::string path;
  ScratchDir() {
    char tmpl[] = "/tmp/compreg-server-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~ScratchDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
};

// A server whose fleet-side budget is spent in tens of milliseconds, so
// an unreachable fleet answers Unavailable fast.
ServerConfig fast_config(const std::string& fleet_dir,
                         const std::string& front_dir) {
  ServerConfig cfg;
  cfg.fleet_dir = fleet_dir;
  cfg.front_dir = front_dir;
  cfg.attempt_ms = 20;
  cfg.max_attempts = 2;
  cfg.epoch_ns = tools::epoch_to_ns(std::chrono::steady_clock::now());
  return cfg;
}

// Runs the server's front-end on a thread, and stops and joins it on
// scope exit, so that a failed ASSERT cannot leave the thread running.
struct Running {
  Server& server;
  std::thread front{[this] { server.run(); }};
  ~Running() {
    server.stop();
    front.join();
  }
};

// One request, one response.
std::optional<WireMsg> call(ServerClient& cli, const WireMsg& req) {
  if (!cli.send(req)) return std::nullopt;
  return cli.recv(milliseconds(10000));
}

TEST(ServerTest, StopBeforeRunReturnsAtOnce) {
  ScratchDir dir;
  Server server(fast_config(dir.path + "/fleet", dir.path));
  server.stop();
  server.run();
  EXPECT_TRUE(server.conservation().ok);
}

// A write admitted just before stop() is answered during the drain: the
// response is queued after the stop and must still reach the client,
// even though the client reads it only after run() returned.
TEST(ServerTest, ResponseQueuedDuringDrainReachesClient) {
  ScratchDir dir;
  Server server(fast_config(dir.path + "/no-fleet", dir.path));
  ServerClient cli(
      ClientConfig{net::real::TransportKind::kUds, dir.path, 0, 1});
  {
    Running running{server};
    ASSERT_TRUE(cli.connect(milliseconds(5000)));
    ASSERT_TRUE(cli.send(make_write_req(1, 1, 42)));
    // Stop once the server holds the write: the write worker is still
    // spending its fleet budget on it.
    const telemetry::Registry& registry = server.registry();
    while (registry.snapshot().counter(Counter::kWritesEnqueued) == 0) {
      std::this_thread::sleep_for(milliseconds(1));
    }
  }  // stop() and join

  const std::optional<WireMsg> resp = cli.recv(milliseconds(5000));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kUnavailableResp);
  EXPECT_EQ(resp->op, 1u);
  const Server::Conservation c = server.conservation();
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.received, 1u);
  EXPECT_EQ(c.unavailable, 1u);
}

// The fleet already holds ts 7 but is unreachable when the server
// starts, so the startup seeding collect fails. A write must then get
// neither ts 1 (an unseeded sequence) nor a stale ack once the fleet is
// reachable: it retries the seed and continues the fleet's sequence.
TEST(ServerTest, WriteSeedsFromAFleetThatWasUnreachableAtStart) {
  ScratchDir dir;
  const auto epoch = std::chrono::steady_clock::now();
  tools::FleetConfig fc;
  fc.dir = dir.path + "/fleet";
  fc.replica_bin = COMPREG_SERVER_BIN;
  tools::Fleet fleet(fc, epoch);
  ASSERT_TRUE(fleet.start());
  ASSERT_TRUE(fleet.wait_all_serving(milliseconds(15000)));
  {
    net::real::TransportConfig tc;
    tc.self = fc.replicas() + 2;  // clear of the server's two endpoints
    tc.replicas = fc.replicas();
    tc.dir = fleet.dir();
    net::real::SocketTransport sock(tc);
    net::real::RealAbdClient writer(sock, net::real::RealClientConfig{},
                                    epoch);
    ASSERT_TRUE(writer.try_write(7, 700));
  }

  // The server reaches the fleet through a path that does not exist yet.
  const std::string later = dir.path + "/later";
  ServerConfig cfg = fast_config(later, dir.path);
  cfg.epoch_ns = tools::epoch_to_ns(epoch);
  Server server(cfg);
  {
    Running running{server};
    ServerClient cli(
        ClientConfig{net::real::TransportKind::kUds, dir.path, 0, 1});
    ASSERT_TRUE(cli.connect(milliseconds(5000)));

    const auto unseeded = call(cli, make_write_req(1, 1, 1));
    ASSERT_TRUE(unseeded.has_value());
    EXPECT_EQ(unseeded->type, MsgType::kUnavailableResp);
    EXPECT_EQ(unseeded->ts, 0u) << "a write was sent with an unseeded ts";

    ASSERT_EQ(::symlink(fleet.dir().c_str(), later.c_str()), 0);
    const auto seeded = call(cli, make_write_req(1, 2, 2));
    ASSERT_TRUE(seeded.has_value());
    EXPECT_EQ(seeded->type, MsgType::kWriteOk);
    EXPECT_EQ(seeded->ts, 8u) << "stale ack: the fleet already held ts 7";
    const auto read = call(cli, make_read_req(1, 3));
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->type, MsgType::kReadOk);
    EXPECT_EQ(read->ts, 8u);
    EXPECT_EQ(read->val, 2u);
  }
  EXPECT_TRUE(server.conservation().ok);
}

}  // namespace
}  // namespace compreg::server
