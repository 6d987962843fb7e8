#include "net/sim_net.h"

#include <algorithm>

#include "sched/schedule_point.h"
#include "util/assert.h"

namespace compreg::net {

SimNet::SimNet(int replicas, NetFaultPlan plan, std::uint64_t seed)
    : replicas_(replicas),
      plan_(std::move(plan)),
      rng_(seed),
      next_client_(replicas),
      processed_(static_cast<std::size_t>(replicas), 0),
      crash_limit_(static_cast<std::size_t>(replicas)),
      recovery_(static_cast<std::size_t>(replicas)),
      // Many processes send and poll, so the network's schedule points
      // are declared kMrmw: the conformance analyzer tracks them (they
      // position network events in the schedule) without flagging them
      // — the SWMR discipline lives one level up, at the replicated
      // register they transport.
      send_access_("net.send", sched::Discipline::kMrmw, /*readers=*/0,
                   /*global_order=*/true),
      poll_access_("net.poll", sched::Discipline::kMrmw, /*readers=*/0,
                   /*global_order=*/true) {
  COMPREG_CHECK(replicas >= 1, "SimNet needs at least one replica");
  for (const ReplicaCrashSpec& c : plan_.crashes) {
    if (c.node < 0 || c.node >= replicas) continue;  // tolerated: no-op
    auto& limit = crash_limit_[static_cast<std::size_t>(c.node)];
    limit = limit ? std::min(*limit, c.after_msgs) : c.after_msgs;
  }
  for (const RecoverSpec& r : plan_.recoveries) {
    if (r.node < 0 || r.node >= replicas) continue;  // tolerated: no-op
    recovery_[static_cast<std::size_t>(r.node)].cycles.push_back(r);
  }
}

bool SimNet::replica_crashed(int node) const {
  if (node < 0 || node >= replicas_) return false;
  const auto& limit = crash_limit_[static_cast<std::size_t>(node)];
  return limit && processed_[static_cast<std::size_t>(node)] >= *limit;
}

bool SimNet::replica_down(int node) const {
  if (node < 0 || node >= replicas_) return false;
  return recovery_[static_cast<std::size_t>(node)].down;
}

std::uint64_t SimNet::add_recover_hook(std::function<void(int)> hook) {
  const std::uint64_t token = next_hook_++;
  hooks_.emplace_back(token, std::move(hook));
  return token;
}

void SimNet::remove_recover_hook(std::uint64_t token) {
  for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
    if (it->first == token) {
      hooks_.erase(it);
      return;
    }
  }
}

std::uint64_t SimNet::processed(int node) const {
  if (node < 0 || node >= replicas_) return 0;
  return processed_[static_cast<std::size_t>(node)];
}

void SimNet::send(int src, int dst, std::function<void()> deliver) {
  // A reply sent from inside a delivery closure is part of the
  // triggering poll's network step; a client-side send is its own
  // labeled schedule point.
  if (!in_delivery_) sched::point(send_access_.write());
  ++stats_.sent;
  const MessageFate fate = plan_.fate(rng_);
  stats_.count(fate);
  if (fate.lost) return;
  Envelope env{now_ + 1 + fate.hold(), 0, src, dst, std::move(deliver)};
  if (fate.dup_gap != 0) {
    Envelope copy = env;
    copy.at += fate.dup_gap;
    copy.seq = next_seq_++;
    queue_.push(std::move(copy));
  }
  env.seq = next_seq_++;
  queue_.push(std::move(env));
}

void SimNet::deliver_one(Envelope env) {
  if (plan_.partitioned(now_, env.src, env.dst)) {
    ++stats_.dropped_partition;
    return;
  }
  if (replica_crashed(env.dst)) {
    ++stats_.dropped_crash;
    return;
  }
  if (env.dst >= 0 && env.dst < replicas_) {
    RecoveryState& rec = recovery_[static_cast<std::size_t>(env.dst)];
    // Crash–recovery trigger: like `crash:n@m`, the budget check runs
    // before processing — the node handles exactly after_msgs messages
    // in this incarnation, then the next arrival finds it down.
    if (!rec.down && rec.next < rec.cycles.size() &&
        rec.since_up >= rec.cycles[rec.next].after_msgs) {
      rec.down = true;
      rec.up_at =
          now_ + std::max<std::uint64_t>(1, rec.cycles[rec.next].downtime);
    }
    if (rec.down) {
      ++stats_.dropped_down;
      return;
    }
    ++processed_[static_cast<std::size_t>(env.dst)];
    ++rec.since_up;
  }
  ++stats_.delivered;
  in_delivery_ = true;
  env.deliver();
  in_delivery_ = false;
}

void SimNet::rejoin_due() {
  for (int node = 0; node < replicas_; ++node) {
    RecoveryState& rec = recovery_[static_cast<std::size_t>(node)];
    if (!rec.down || now_ < rec.up_at) continue;
    rec.down = false;
    rec.since_up = 0;
    ++rec.next;
    ++stats_.replica_recoveries;
    // The registers' rejoin protocols run inside this poll's network
    // step: their sends (catch-up queries) must not take schedule
    // points of their own.
    const bool was_in_delivery = in_delivery_;
    in_delivery_ = true;
    for (auto& [token, hook] : hooks_) hook(node);
    in_delivery_ = was_in_delivery;
  }
}

void SimNet::poll() {
  sched::point(poll_access_.read());
  ++now_;
  ++stats_.polls;
  rejoin_due();
  while (!queue_.empty() && queue_.top().at <= now_) {
    Envelope env = queue_.top();  // top() is const — copy, then pop
    queue_.pop();
    deliver_one(std::move(env));
  }
}

}  // namespace compreg::net
