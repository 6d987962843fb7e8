// service-read-mostly / service-write-heavy: the served register.
//
// An f=1 fleet of three replica processes plus the compreg_server
// daemon (default max_inflight), all over Unix-domain sockets in a fresh
// directory of the run, fed by four client connections from four
// threads of this process. Closed loop: each client sends its next
// request when the previous response arrived. Each operation is a write
// with probability write_pct/100, else a read, drawn from the seed.
//
// Every run checks its outputs the way compreg_loadgen does: payloads
// encode (client, seq), every timestamp must map to one value, every
// read must return the exact bits of the write owning its timestamp,
// the whole history goes through the funneled atomicity checker, a
// final probe read must see the largest acknowledged timestamp, and the
// daemon's telemetry must satisfy its conservation law at shutdown.
//
// The traced run adds, after the service phase and with the daemon
// stopped, a direct phase: one thread drives RealAbdClient against the
// same fleet with the same op mix, over a TracingTransport.
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet_common.h"
#include "lin/history.h"
#include "lin/register_checker.h"
#include "net/real/client.h"
#include "net/real/transport.h"
#include "server/client.h"
#include "server/protocol.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using compreg::lin::kPendingEnd;
using compreg::lin::LogicalClock;
using compreg::lin::RegisterHistory;
using compreg::lin::RegRead;
using compreg::lin::RegWrite;
using compreg::net::real::MsgType;
using compreg::net::real::TransportKind;
using compreg::net::real::WireMsg;
using compreg::server::ServerClient;

constexpr int kF = 1;
constexpr int kReplicas = 2 * kF + 1;
constexpr int kServerNode = kReplicas;  // supervisor slot of the daemon
constexpr int kClients = 4;
constexpr int kSetupRepeats = 5;
constexpr auto kOpTimeout = std::chrono::milliseconds(2000);
constexpr auto kStartLimit = std::chrono::milliseconds(15000);

std::uint64_t encode_val(std::uint32_t client, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client) << 32) | (seq & 0xffffffffull);
}

std::string fs_name(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

bool wait_for(const std::function<bool()>& ready,
              std::chrono::milliseconds limit) {
  const Clock::time_point until = Clock::now() + limit;
  while (!ready()) {
    if (Clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

// The daemon's --stats-out file: counters and histogram means by name.
struct ServerStats {
  bool found = false;
  bool conservation_ok = false;
  std::map<std::string, double> counters;
  std::map<std::string, double> means;
};

ServerStats parse_server_stats(const std::string& path) {
  ServerStats st;
  std::ifstream in(path);
  if (!in) return st;
  st.found = true;
  std::string line;
  while (std::getline(in, line)) {
    char name[64];
    unsigned long long v = 0;
    unsigned long long cnt = 0;
    unsigned long long sum = 0;
    double mean = 0;
    if (std::sscanf(line.c_str(), "counter %63s %llu", name, &v) == 2) {
      st.counters[name] = static_cast<double>(v);
    } else if (std::sscanf(line.c_str(),
                           "histo %63s count=%llu sum=%llu mean=%lf", name,
                           &cnt, &sum, &mean) == 4) {
      st.means[name] = mean;
    } else if (line == "conservation OK") {
      st.conservation_ok = true;
    }
  }
  return st;
}

struct LostWrite {
  std::uint64_t seq = 0;
  std::uint64_t val = 0;
  std::uint64_t start = 0;
  bool resolved = false;
};

struct ReadRec {
  RegRead read;
  std::uint64_t val = 0;
};

// Per-phase measurements of one client (or of all, merged).
struct Phase {
  LatencyHisto reads;
  LatencyHisto writes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double window_s = 0;

  void merge(const Phase& o) {
    reads.merge(o.reads);
    writes.merge(o.writes);
    attempted += o.attempted;
    failed += o.failed;
  }
  double mean_us() const {
    const std::uint64_t n = reads.count() + writes.count();
    if (n == 0) return 0;
    return (reads.mean() * static_cast<double>(reads.count()) +
            writes.mean() * static_cast<double>(writes.count())) /
           static_cast<double>(n) / 1000.0;
  }
};

// One client connection and everything it observed. Owned by one
// thread at a time.
class Client {
 public:
  Client(std::uint32_t id, const std::string& front_dir, std::uint64_t seed)
      : id_(id), rng_(seed), cli_(config(id, front_dir)) {}

  bool connect() { return cli_.connect(std::chrono::milliseconds(5000)); }

  // One closed-loop operation. Returns true when it completed OK, and
  // its latency in `ns`.
  bool op(bool is_write, LogicalClock& clock, SpanBuffer* buf,
          std::int64_t& ns) {
    const std::uint64_t seq = ++seq_;
    const std::uint64_t val = encode_val(id_, seq);
    const WireMsg req = is_write ? compreg::server::make_write_req(id_, seq, val)
                                 : compreg::server::make_read_req(id_, seq);
    if (buf != nullptr) buf->set_op((static_cast<std::uint64_t>(id_) << 40) | seq);
    ScopedSpan span(buf, is_write ? "service.client.write" : "service.client.read");
    const std::uint64_t start = clock.tick();
    const Clock::time_point t0 = Clock::now();
    bool sent = false;
    {
      ScopedSpan s(buf, "server.client.send");
      sent = cli_.send(req);
    }
    std::optional<WireMsg> resp;
    if (sent) {
      ScopedSpan s(buf, "server.client.recv");
      resp = await(seq, t0 + kOpTimeout);
    } else {
      ++proto_errors_;
    }
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t end = clock.tick();
    ns = ns_between(t0, t1);
    if (!resp) {
      if (is_write) {
        lost_.push_back(LostWrite{seq, val, start, false});
      }
      ++timeouts_;
      return false;
    }
    switch (resp->type) {
      case MsgType::kWriteOk:
        if (!is_write) break;
        writes_.push_back(RegWrite{resp->ts, start, end});
        write_vals_.push_back(val);
        max_acked_ts_ = std::max(max_acked_ts_, resp->ts);
        return true;
      case MsgType::kReadOk:
        if (is_write) break;
        reads_.push_back(ReadRec{RegRead{resp->ts, start, end}, resp->val});
        return true;
      case MsgType::kUnavailableResp:
        if (is_write) {
          // The assigned timestamp rode along: the write may yet take
          // effect, so it enters the history pending.
          writes_.push_back(RegWrite{resp->ts, start, kPendingEnd});
          write_vals_.push_back(val);
        }
        ++unavailable_;
        return false;
      case MsgType::kBusyResp:
        ++busy_;
        return false;
      default:
        break;
    }
    ++proto_errors_;
    return false;
  }

  // Runs closed-loop operations until `deadline`.
  Phase run(unsigned write_pct, Clock::time_point deadline,
            LogicalClock& clock, SpanBuffer* buf) {
    Phase p;
    while (Clock::now() < deadline) {
      const bool is_write = rng_.below(100) < write_pct;
      std::int64_t ns = 0;
      const bool ok = op(is_write, clock, buf, ns);
      ++p.attempted;
      if (!ok) {
        ++p.failed;
        continue;
      }
      (is_write ? p.writes : p.reads).record(static_cast<std::uint64_t>(ns));
    }
    return p;
  }

  // Collects straggler responses briefly, then resolves lost writes
  // whose response did arrive (the write got a timestamp: pending).
  void drain() {
    const Clock::time_point until = Clock::now() + std::chrono::milliseconds(100);
    while (cli_.connected() && Clock::now() < until) {
      auto m = cli_.recv(std::chrono::milliseconds(20));
      if (!m) break;
      stale_.emplace(m->op, *m);
    }
    for (LostWrite& lost : lost_) {
      const auto it = stale_.find(lost.seq);
      if (it == stale_.end()) continue;
      const WireMsg& m = it->second;
      if (m.type != MsgType::kWriteOk && m.type != MsgType::kUnavailableResp) {
        continue;
      }
      writes_.push_back(RegWrite{m.ts, lost.start, kPendingEnd});
      write_vals_.push_back(lost.val);
      lost.resolved = true;
    }
  }

  std::uint32_t id() const { return id_; }
  std::vector<RegWrite>& writes() { return writes_; }
  std::vector<std::uint64_t>& write_vals() { return write_vals_; }
  std::vector<ReadRec>& reads() { return reads_; }
  std::vector<LostWrite>& lost() { return lost_; }
  std::uint64_t max_acked_ts() const { return max_acked_ts_; }
  std::uint64_t busy() const { return busy_; }
  std::uint64_t unavailable() const { return unavailable_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t proto_errors() const { return proto_errors_; }

 private:
  static compreg::server::ClientConfig config(std::uint32_t id,
                                              const std::string& front_dir) {
    compreg::server::ClientConfig cfg;
    cfg.kind = TransportKind::kUds;
    cfg.front_dir = front_dir;
    cfg.id = id;
    return cfg;
  }

  std::optional<WireMsg> await(std::uint64_t seq, Clock::time_point deadline) {
    while (true) {
      const Clock::time_point now = Clock::now();
      if (now >= deadline) return std::nullopt;
      auto m = cli_.recv(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now));
      if (!m) return std::nullopt;
      if (m->op == seq) return m;
      stale_.emplace(m->op, *m);  // straggler from a timed-out op
    }
  }

  std::uint32_t id_;
  compreg::Rng rng_;
  ServerClient cli_;
  std::uint64_t seq_ = 0;
  std::vector<RegWrite> writes_;
  std::vector<std::uint64_t> write_vals_;
  std::vector<ReadRec> reads_;
  std::vector<LostWrite> lost_;
  std::unordered_map<std::uint64_t, WireMsg> stale_;
  std::uint64_t max_acked_ts_ = 0;
  std::uint64_t busy_ = 0;
  std::uint64_t unavailable_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t proto_errors_ = 0;
};

// A running fleet + daemon + connected clients in a fresh directory.
// The destructor stops every process it started and removes the
// directory, on every path out.
class Stack {
 public:
  Stack(const Options& opt, std::string dir, std::uint64_t seed)
      : opt_(opt), dir_(std::move(dir)), seed_(seed), epoch_(Clock::now()) {}

  ~Stack() {
    clients_.clear();
    if (fleet_) fleet_->sup().terminate_all(std::chrono::milliseconds(1000));
    fleet_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Spawns the fleet and the daemon, dials every client, and warms up:
  // each client writes and reads once, and every replica has made its
  // first persist. False (with `why`) if any step fails.
  bool start(std::string& why) {
    compreg::tools::FleetConfig fc;
    fc.f = kF;
    fc.kind = TransportKind::kUds;
    fc.dir = dir_;
    fc.seed = seed_;
    fc.replica_bin = opt_.server_bin;
    fleet_ = std::make_unique<compreg::tools::Fleet>(fc, epoch_);
    if (!fleet_->start()) {
      why = "cannot prepare " + dir_;
      return false;
    }
    for (int node = 0; node < kReplicas; ++node) {
      if (!wait_for([&] { return fleet_->serving_count(node) >= 1; },
                    kStartLimit)) {
        why = "replica " + std::to_string(node) + " never served";
        return false;
      }
    }
    const std::string front = dir_ + "/front";
    fleet_->sup().spawn(
        kServerNode,
        {opt_.server_bin, "--kind", "uds", "--f", std::to_string(kF), "--dir",
         dir_, "--front-dir", front, "--seed", std::to_string(seed_),
         "--epoch-ns", std::to_string(compreg::tools::epoch_to_ns(epoch_)),
         "--stats-out", stats_path()});
    if (!wait_for([&] { return std::filesystem::exists(front + "/replica-0.sock"); },
                  kStartLimit)) {
      why = "the daemon never listened";
      return false;
    }
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<Client>(
          static_cast<std::uint32_t>(c + 1), front,
          compreg::tools::mix_seed(seed_, 1000 + c)));
      if (!clients_.back()->connect()) {
        why = "client " + std::to_string(c + 1) + " could not connect";
        return false;
      }
    }
    for (auto& c : clients_) {
      for (const bool is_write : {true, false}) {
        bool ok = false;
        for (int attempt = 0; attempt < 50 && !ok; ++attempt) {
          std::int64_t ns = 0;
          ok = c->op(is_write, clock_, nullptr, ns);
        }
        if (!ok) {
          why = "warm-up op of client " + std::to_string(c->id()) + " failed";
          return false;
        }
      }
    }
    for (int node = 0; node < kReplicas; ++node) {
      const std::string dur =
          dir_ + "/replica-" + std::to_string(node) + ".dur";
      if (!wait_for([&] { return std::filesystem::exists(dur); }, kStartLimit)) {
        why = "replica " + std::to_string(node) + " never persisted";
        return false;
      }
    }
    return true;
  }

  // All clients run closed loops for `seconds`; `bufs` has one span
  // buffer per client (or nullptrs).
  Phase run(unsigned write_pct, double seconds,
            const std::vector<SpanBuffer*>& bufs) {
    std::vector<Phase> per(clients_.size());
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        per[c] = clients_[c]->run(write_pct, deadline, clock_, bufs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    Phase out;
    for (const Phase& p : per) out.merge(p);
    out.window_s = seconds_between(start, Clock::now());
    return out;
  }

  // Checks everything the clients observed; returns the number of
  // operations the checks flagged and records findings in `r`.
  std::uint64_t check(RunResult& r);

  // SIGTERM to the daemon: it drains and writes its stats file.
  ServerStats stop_server() {
    fleet_->sup().terminate(kServerNode, std::chrono::milliseconds(10000));
    return parse_server_stats(stats_path());
  }

  const std::string& dir() const { return dir_; }
  Clock::time_point epoch() const { return epoch_; }
  std::uint64_t max_acked_ts() const {
    std::uint64_t m = 0;
    for (const auto& c : clients_) m = std::max(m, c->max_acked_ts());
    return m;
  }

 private:
  std::string stats_path() const { return dir_ + "/server_stats.txt"; }

  const Options& opt_;
  std::string dir_;
  std::uint64_t seed_;
  Clock::time_point epoch_;
  LogicalClock clock_;
  std::unique_ptr<compreg::tools::Fleet> fleet_;
  std::vector<std::unique_ptr<Client>> clients_;
};

std::uint64_t Stack::check(RunResult& r) {
  std::uint64_t flagged = 0;
  for (auto& c : clients_) c->drain();

  // Durability probe: a fresh read sees at least the largest
  // acknowledged write timestamp.
  const std::uint64_t max_acked = max_acked_ts();
  {
    std::int64_t ns = 0;
    Client& probe = *clients_.front();
    const std::size_t before = probe.reads().size();
    if (!probe.op(false, clock_, nullptr, ns) || probe.reads().size() == before) {
      ++flagged;
      r.finding("durability: the probe read did not complete");
    } else if (probe.reads().back().read.id < max_acked) {
      ++flagged;
      r.finding("durability: probe read returned ts " +
                std::to_string(probe.reads().back().read.id) +
                " < largest acknowledged ts " + std::to_string(max_acked));
    }
  }

  // One timestamp, one value; every read returns the exact bits of the
  // write owning its timestamp (or reveals a lost write, pending).
  std::map<std::uint64_t, std::uint64_t> ts_to_val;
  RegisterHistory history;
  for (auto& c : clients_) {
    for (std::size_t i = 0; i < c->writes().size(); ++i) {
      const auto [it, inserted] =
          ts_to_val.emplace(c->writes()[i].id, c->write_vals()[i]);
      if (!inserted && it->second != c->write_vals()[i]) {
        ++flagged;
        r.finding("integrity: timestamp " + std::to_string(it->first) +
                  " assigned to two different writes");
      }
    }
    history.writes.insert(history.writes.end(), c->writes().begin(),
                          c->writes().end());
  }
  std::uint64_t mismatched = 0;
  for (auto& c : clients_) {
    for (const ReadRec& rec : c->reads()) {
      history.reads.push_back(rec.read);
      const std::uint64_t ts = rec.read.id;
      if (ts == 0) {
        if (rec.val != 0) ++mismatched;
        continue;
      }
      const auto it = ts_to_val.find(ts);
      if (it != ts_to_val.end()) {
        if (it->second != rec.val) ++mismatched;
        continue;
      }
      const auto owner = static_cast<std::uint32_t>(rec.val >> 32);
      bool revealed = false;
      if (owner >= 1 && owner <= clients_.size()) {
        for (LostWrite& lost : clients_[owner - 1]->lost()) {
          if (!lost.resolved && lost.val == rec.val) {
            history.writes.push_back(RegWrite{ts, lost.start, kPendingEnd});
            ts_to_val.emplace(ts, rec.val);
            lost.resolved = revealed = true;
            break;
          }
        }
      }
      if (!revealed) ++mismatched;
    }
  }
  if (mismatched != 0) {
    flagged += mismatched;
    r.finding("integrity: " + std::to_string(mismatched) +
              " reads returned bits no write owns at their timestamp");
  }
  std::uint64_t busy = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t proto_errors = 0;
  for (const auto& c : clients_) {
    busy += c->busy();
    unavailable += c->unavailable();
    timeouts += c->timeouts();
    proto_errors += c->proto_errors();
  }
  std::printf("failed ops by cause: busy %llu, unavailable %llu, timeout "
              "%llu, protocol %llu, flagged by the checks %llu\n",
              static_cast<unsigned long long>(busy),
              static_cast<unsigned long long>(unavailable),
              static_cast<unsigned long long>(timeouts),
              static_cast<unsigned long long>(proto_errors),
              static_cast<unsigned long long>(flagged));
  const auto lin = compreg::lin::check_register_atomicity_funneled(history);
  std::printf("check: funneled atomicity over %zu writes and %zu reads: %s\n",
              history.writes.size(), history.reads.size(),
              lin.ok ? "OK" : lin.violation.c_str());
  if (!lin.ok) {
    ++flagged;
    r.finding("linearizability: " + lin.violation);
  }
  return flagged;
}

// Direct phase: RealAbdClient against the fleet over a TracingTransport,
// with the daemon stopped. Continues the daemon's timestamp sequence.
// Returns the number of timed operations.
double run_direct(Stack& stack, unsigned write_pct, double seconds,
                  std::uint64_t seed, SpanBuffer* buf, RunResult& r) {
  compreg::net::real::TransportConfig tc;
  tc.kind = TransportKind::kUds;
  tc.self = kReplicas + 2;  // the daemon's workers used kReplicas, +1
  tc.replicas = kReplicas;
  tc.dir = stack.dir();
  compreg::net::real::SocketTransport sock(tc);
  TracingTransport net(sock, buf);
  compreg::net::real::RealClientConfig cc;
  cc.f = kF;
  compreg::net::real::RealAbdClient client(net, cc, stack.epoch());

  const auto first = client.try_read();  // dials every replica; untimed
  if (!first.ok || first.ts < stack.max_acked_ts()) {
    r.finding("direct: first read failed or went back in time");
    return 0;
  }
  std::uint64_t ts = first.ts;
  std::uint64_t val = first.val;
  const compreg::net::real::RealClientStats s0 = client.stats();
  const compreg::net::real::TransportStats t0 = sock.stats();
  const std::uint64_t sent0 = net.frames_sent();
  const std::uint64_t recv0 = net.frames_received();

  compreg::Rng rng(compreg::tools::mix_seed(seed, 77));
  LatencyHisto reads;
  LatencyHisto writes;
  std::uint64_t bad = 0;
  std::uint64_t seq = 0;
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
    const bool is_write = rng.below(100) < write_pct;
    if (buf != nullptr) buf->set_op((std::uint64_t{1} << 56) | ++seq);
    const Clock::time_point a = Clock::now();
    if (is_write) {
      const std::uint64_t v = encode_val(kReplicas + 2, seq);
      bool ok = false;
      {
        ScopedSpan span(buf, "net.real.client.write");
        ok = client.try_write(ts + 1, v);
      }
      writes.record(static_cast<std::uint64_t>(ns_between(a, Clock::now())));
      if (ok) {
        ++ts;
        val = v;
      } else {
        ++bad;
      }
    } else {
      compreg::net::real::RealReadResult got;
      {
        ScopedSpan span(buf, "net.real.client.read");
        got = client.try_read();
      }
      reads.record(static_cast<std::uint64_t>(ns_between(a, Clock::now())));
      if (!got.ok || got.ts != ts || got.val != val) ++bad;
    }
  }
  const std::uint64_t ops = reads.count() + writes.count();
  r.attempted += ops;
  r.failed += bad;
  if (bad != 0) {
    r.finding("direct: " + std::to_string(bad) +
              " RealAbdClient ops failed or read other than the last write");
  }
  const compreg::net::real::RealClientStats& s = client.stats();
  const compreg::net::real::TransportStats& t = sock.stats();
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  const double frames = static_cast<double>(net.frames_sent() - sent0 +
                                            net.frames_received() - recv0);
  const double bytes = static_cast<double>(t.bytes_sent - t0.bytes_sent +
                                           t.bytes_received - t0.bytes_received);
  const double read_ops = static_cast<double>(s.reads - s0.reads);
  const double skips =
      static_cast<double>(s.writeback_skips - s0.writeback_skips);
  std::printf("layer net.real.client (direct, %.1f s, %llu ops): read p50 "
              "%.1f us (n=%llu), write p50 %.1f us (n=%llu)\n",
              seconds, static_cast<unsigned long long>(ops),
              reads.quantile(0.5) / 1000.0,
              static_cast<unsigned long long>(reads.count()),
              writes.quantile(0.5) / 1000.0,
              static_cast<unsigned long long>(writes.count()));
  r.set("net.real.client.read_us_p50", reads.quantile(0.5) / 1000.0, "us");
  r.set("net.real.client.write_us_p50", writes.quantile(0.5) / 1000.0, "us");
  r.set("net.real.client.msgs_per_op", frames / n, "count");
  r.set("net.real.client.writeback_skip_ratio",
        read_ops == 0 ? 0 : skips / read_ops, "ratio");
  r.set("net.real.transport.bytes_per_op", bytes / n, "B");
  return n;
}

void report_service_layers(const ServerStats& st, const Phase& all,
                           RunResult& r) {
  auto counter = [&](const char* name) {
    const auto it = st.counters.find(name);
    return it == st.counters.end() ? 0.0 : it->second;
  };
  const double ok = counter("writes_ok") + counter("reads_ok");
  auto mean = [&](const char* name) {
    const auto it = st.means.find(name);
    return it == st.means.end() ? 0.0 : it->second;
  };
  const double read_mean = mean("read_latency_us");
  const double write_mean = mean("write_latency_us");
  const double client_read = all.reads.mean() / 1000.0;
  const double client_write = all.writes.mean() / 1000.0;
  r.set("server.read_us_mean", read_mean, "us");
  r.set("server.write_us_mean", write_mean, "us");
  r.set("server.front_read_us", client_read - read_mean, "us");
  r.set("server.front_write_us", client_write - write_mean, "us");
  r.set("server.batch_occupancy_mean", mean("batch_occupancy"), "count");
  r.set("server.queue_depth_mean", mean("queue_depth"), "count");
  r.set("server.quorum_rounds_per_op",
        ok == 0 ? 0 : counter("quorum_rounds") / ok, "count");
  r.set("server.retries_per_op", ok == 0 ? 0 : counter("retries") / ok,
        "count");
  std::printf("layer server (daemon --stats-out, %.0f ops): read mean %.1f "
              "us inside the daemon vs %.1f us at the client (front %.1f us); "
              "write mean %.1f vs %.1f us (front %.1f us); batch occupancy "
              "%.2f, queue depth %.2f, quorum rounds/op %.3f, retries/op "
              "%.4f\n",
              ok, read_mean, client_read, client_read - read_mean, write_mean,
              client_write, client_write - write_mean, mean("batch_occupancy"),
              mean("queue_depth"), ok == 0 ? 0 : counter("quorum_rounds") / ok,
              ok == 0 ? 0 : counter("retries") / ok);
}

// Traced service phase on a running stack: untraced and traced segments
// of the closed loop, the output checks, the daemon's
// stats, then the direct RealAbdClient phase. Reports every server and
// net.real per-layer metric; returns the tracing overhead in us/op.
double service_layers(Stack& stack, unsigned write_pct, double seconds,
                      std::uint64_t seed, Tracer& tracer, RunResult& r) {
  // Untraced and traced segments alternate (U T U T), so drift over the
  // phase cancels out of the overhead.
  const std::vector<SpanBuffer*> none(kClients, nullptr);
  std::vector<SpanBuffer*> bufs;
  for (int c = 0; c < kClients; ++c) bufs.push_back(tracer.buffer());
  Phase plain;
  Phase traced;
  for (int seg = 0; seg < 4; ++seg) {
    (seg % 2 ? traced : plain)
        .merge(stack.run(write_pct, seconds / 4, seg % 2 ? bufs : none));
  }
  Phase all = plain;
  all.merge(traced);
  r.attempted += all.attempted;
  r.failed += all.failed + stack.check(r);
  const ServerStats st = stack.stop_server();
  if (!st.found || !st.conservation_ok) {
    ++r.failed;
    r.finding(st.found ? "telemetry: conservation violated at daemon shutdown"
                       : "telemetry: the daemon wrote no stats file");
  }
  report_service_layers(st, all, r);

  SpanBuffer* direct_buf = tracer.buffer();
  const double direct_ops =
      run_direct(stack, write_pct, std::min(1.0, seconds / 4), seed,
                 direct_buf, r);
  const auto totals = summarize(tracer.buffers());
  auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  auto per = [](double us, double n) { return n == 0 ? 0 : us / n; };
  const SpanTotals rd = total("net.real.client.read");
  const SpanTotals wr = total("net.real.client.write");
  const SpanTotals poll = total("net.real.transport.poll");
  const SpanTotals send = total("net.real.transport.send");
  const SpanTotals csend = total("server.client.send");
  const SpanTotals crecv = total("server.client.recv");
  r.set("net.real.client.self_us", per(rd.self_us + wr.self_us, direct_ops),
        "us");
  r.set("net.real.transport.poll_wait_us_per_op",
        per(poll.total_us, direct_ops), "us");
  r.set("net.real.transport.send_us_per_frame",
        per(send.total_us, static_cast<double>(send.count)), "us");
  r.set("server.client.send_us_per_op",
        per(csend.total_us, static_cast<double>(csend.count)), "us");
  r.set("server.client.recv_us_per_op",
        per(crecv.total_us, static_cast<double>(crecv.count)), "us");

  const double inside = r.metrics["server.read_us_mean"].value;
  const double outside = r.metrics["server.front_read_us"].value;
  const double floor = r.metrics["net.real.client.read_us_p50"].value;
  std::printf("read latency: p50 %.1f us, mean %.1f us = %.1f us outside the "
              "daemon (client socket, framing) + %.1f us inside it (arrival "
              "to response send), of which %.1f us is the quorum floor "
              "(direct RealAbdClient read p50) and %.1f us waiting in the "
              "daemon (read batching, and completions picked up only between "
              "the front-end's 1 ms poll slices)\n",
              all.reads.quantile(0.5) / 1000.0, all.reads.mean() / 1000.0,
              outside, inside, floor, inside - floor);
  const double overhead = traced.mean_us() - plain.mean_us();
  std::printf("tracing overhead %.3f us/op (mean %.3f traced vs %.3f "
              "untraced)\n",
              overhead, traced.mean_us(), plain.mean_us());
  return overhead;
}

void print_disk(const std::string& dir) {
  std::printf("disk: run directory %s on %s; flush policy: every replica "
              "STORE persists via FileDurable (tmp write, fsync, rename, "
              "directory fsync) before its ack\n",
              dir.c_str(), fs_name(dir).c_str());
}

}  // namespace

void run_service(const Options& opt, unsigned write_pct, RunResult& r) {
  std::printf("workload %s: f=%d UDS fleet (%d replica processes) + "
              "compreg_server (default max_inflight), %d client connections "
              "from %d threads, closed loop, %u%% writes, seed %llu\n",
              opt.workload.c_str(), kF, kReplicas, kClients, kClients,
              write_pct, static_cast<unsigned long long>(opt.seed));
  std::filesystem::create_directories(opt.workdir);
  print_disk(opt.workdir);

  // Set-up: several full stacks, each timed from nothing to warm; all
  // but the last are torn down again.
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  std::vector<double> setup;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < repeats; ++i) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = std::make_unique<Stack>(opt, opt.workdir + "/s" + std::to_string(i),
                                    compreg::tools::mix_seed(opt.seed, i));
    std::string why;
    if (!stack->start(why)) {
      r.finding("setup: " + why);
      ++r.attempted;
      ++r.failed;
      return;
    }
    setup.push_back(seconds_between(t0, Clock::now()));
  }

  if (opt.trace) {
    Tracer tracer;
    r.set("trace.overhead_us_per_op",
          service_layers(*stack, write_pct, opt.seconds, opt.seed, tracer, r),
          "us");
    run_layer_probes(opt, stack->dir(), tracer, r);
    print_span_summary(summarize(tracer.buffers()));
    if (!write_spans(opt.spans_out, tracer.buffers())) {
      r.finding("trace: cannot write " + opt.spans_out);
    }
    return;
  }

  const Phase all =
      stack->run(write_pct, opt.seconds, std::vector<SpanBuffer*>(kClients));
  r.attempted += all.attempted;
  r.failed += all.failed + stack->check(r);
  const ServerStats st = stack->stop_server();
  if (!st.found || !st.conservation_ok) {
    ++r.failed;
    r.finding(st.found ? "telemetry: conservation violated at daemon shutdown"
                       : "telemetry: the daemon wrote no stats file");
  }
  const double setup_s = median(setup);
  const double ok_ops =
      static_cast<double>(all.reads.count() + all.writes.count());
  std::printf("end-to-end (untraced, %.2f s window):\n", all.window_s);
  std::printf("  setup_s %.6f s (median of %d fleet+daemon start-ups)\n",
              setup_s, repeats);
  std::printf("  ops_per_s %.1f 1/s (%.0f ok of %llu attempted)\n",
              ok_ops / all.window_s, ok_ops,
              static_cast<unsigned long long>(all.attempted));
  r.set("setup_s", setup_s, "s");
  r.set("ops_per_s", ok_ops / all.window_s, "1/s");
  report_latency(r, "read", {all.reads});
  report_latency(r, "write", {all.writes});
}

void probe_service(const Options& opt, Tracer& tracer, RunResult& r) {
  constexpr unsigned kWritePct = 5;
  constexpr double kSeconds = 4;
  std::printf("probe: service layers from a %.0f s service-read-mostly phase "
              "(%u%% writes, %d clients)\n",
              kSeconds, kWritePct, kClients);
  const std::string dir = opt.workdir + "/service-probe";
  std::filesystem::create_directories(opt.workdir);
  print_disk(opt.workdir);
  Stack stack(opt, dir, opt.seed);
  std::string why;
  if (!stack.start(why)) {
    r.finding("service probe setup: " + why);
    ++r.attempted;
    ++r.failed;
    return;
  }
  service_layers(stack, kWritePct, kSeconds, opt.seed, tracer, r);
}

}  // namespace perfbench
