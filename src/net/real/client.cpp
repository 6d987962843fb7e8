#include "net/real/client.h"

namespace compreg::net::real {

RealAbdClient::RealAbdClient(Transport& net, const RealClientConfig& cfg,
                             std::chrono::steady_clock::time_point epoch)
    : net_(net),
      epoch_(epoch),
      client_(cfg.f, net.self(),
              RetryBudget{cfg.max_attempts,
                          static_cast<std::uint64_t>(
                              cfg.attempt_timeout.count()),
                          kBackoffBaseMs, kBackoffCapMs},
              cfg.jitter_seed, stats_, SocketLink{this}) {}

void RealAbdClient::SocketLink::broadcast(
    QuorumCollector<std::uint64_t>& phase,
    const AbdMsg<std::uint64_t>& request) {
  const WireMsg m =
      to_wire(static_cast<std::uint32_t>(owner->net_.self()), request);
  for (int r = 0; r < phase.replicas(); ++r) owner->net_.send(r, m);
}

bool RealAbdClient::SocketLink::receive(Wait& wait,
                                        QuorumCollector<std::uint64_t>& phase) {
  const std::optional<Delivery> d = owner->net_.poll(wait.deadline);
  if (!d) return false;
  const AbdMsg<std::uint64_t> m = to_abd(d->msg);
  if (phase.take(d->src, m) && m.kind == AbdKind::kStoreAck &&
      owner->ack_hook_) {
    const auto t = std::chrono::steady_clock::now() - owner->epoch_;
    owner->ack_hook_(
        d->src, m.ts,
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
  }
  return true;
}

}  // namespace compreg::net::real
