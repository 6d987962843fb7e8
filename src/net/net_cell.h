// NetCell: Cell-concept adapter over the replicated register, plus the
// NetFabric that hosts every cell of one construction on a shared
// simulated network.
//
// CompositeRegister constructs its base registers internally with the
// fixed Cell signature (readers, initial, label, payload_bits), so the
// network context — which SimNet, how many replicas, what robustness
// budgets — is ambient: install a fabric with ScopedNetFabric, then
// build the register inside the scope. Every NetCell the construction
// allocates (all the Y[0] records of the recursion and all the mod-3 Z
// registers) becomes its own ABD-replicated register whose 2f+1 replica
// copies live on the fabric's shared replica nodes — one simulated
// "server" process per node hosting all cells, which is exactly what a
// NetFaultPlan partition or replica-crash then takes out wholesale.
//
//   net::NetConfig cfg;                  // f, timeouts, backoff
//   net::ScopedNetFabric fab(cfg, plan, seed);
//   core::CompositeRegister<std::uint64_t, net::NetCell, net::NetCell>
//       snap(components, readers, 0);
//
// SIMULATOR-ONLY for concurrent use, like the SimNet underneath.
#pragma once

#include <cstdint>
#include <memory>

#include "net/replicated_register.h"
#include "net/sim_net.h"
#include "util/assert.h"

namespace compreg::net {

// One SimNet plus the client robustness configuration every cell on it
// shares. The fabric owns the network; cells reference it.
class NetFabric {
 public:
  NetFabric(const NetConfig& cfg, NetFaultPlan plan, std::uint64_t seed)
      : cfg_(cfg), net_(cfg.replicas(), std::move(plan), seed) {}

  NetFabric(const NetFabric&) = delete;
  NetFabric& operator=(const NetFabric&) = delete;

  SimNet& net() { return net_; }
  const NetConfig& cfg() const { return cfg_; }

  // The ambient fabric NetCell constructors attach to (nullptr when
  // none is installed). Installation is construction-time only and not
  // thread-safe — install before spawning simulator processes.
  static NetFabric* current();

 private:
  friend class ScopedNetFabric;
  static void install(NetFabric* fabric);

  NetConfig cfg_;
  SimNet net_;
};

// RAII installation of a fabric as the ambient one.
class ScopedNetFabric {
 public:
  ScopedNetFabric(const NetConfig& cfg, NetFaultPlan plan, std::uint64_t seed)
      : fabric_(cfg, std::move(plan), seed), prev_(NetFabric::current()) {
    NetFabric::install(&fabric_);
  }
  ~ScopedNetFabric() { NetFabric::install(prev_); }

  ScopedNetFabric(const ScopedNetFabric&) = delete;
  ScopedNetFabric& operator=(const ScopedNetFabric&) = delete;

  NetFabric& fabric() { return fabric_; }

 private:
  NetFabric fabric_;
  NetFabric* prev_;
};

template <typename T>
class NetCell {
 public:
  NetCell(int readers, T initial, const char* label = "net_cell",
          std::uint64_t payload_bits = sizeof(T) * 8)
      : reg_(require_fabric().net(), require_fabric().cfg(), readers,
             std::move(initial), label, payload_bits) {}

  NetCell(const NetCell&) = delete;
  NetCell& operator=(const NetCell&) = delete;

  T read(int reader_id) { return reg_.read(reader_id); }
  template <typename F>
  auto read(int reader_id, F&& f) {
    return f(read(reader_id));
  }
  void write(const T& value) { reg_.write(value); }

  // FallibleMrswCell surface (register_concepts.h).
  std::optional<T> try_read(int reader_id) { return reg_.try_read(reader_id); }
  bool try_write(const T& value) { return reg_.try_write(value); }

  ReplicatedRegister<T>& replicated() { return reg_; }

 private:
  static NetFabric& require_fabric() {
    NetFabric* fabric = NetFabric::current();
    COMPREG_CHECK(fabric != nullptr,
                  "NetCell built with no ambient NetFabric; wrap the "
                  "construction in a net::ScopedNetFabric");
    return *fabric;
  }

  ReplicatedRegister<T> reg_;
};

}  // namespace compreg::net
