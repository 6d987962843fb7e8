#include "net/net_plan.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "fault/plan_parse.h"

namespace compreg::net {
namespace {

using fault::plan_parse::parse_int;
using fault::plan_parse::parse_spec_body;
using fault::plan_parse::parse_u64;

// Permille fields are probabilities; anything over 1000 is junk.
bool parse_permille(const std::string& text, unsigned& out) {
  std::uint64_t v = 0;
  if (!parse_u64(text, v) || v > 1000) return false;
  out = static_cast<unsigned>(v);
  return true;
}

// "<step>+<len>@<node>[.<node>]*"
bool parse_partition(const std::string& body, PartitionSpec& out) {
  const std::size_t at = body.find('@');
  if (at == std::string::npos || at == 0) return false;
  const std::string window = body.substr(0, at);
  const std::size_t plus = window.find('+');
  if (plus == std::string::npos || plus == 0) return false;
  if (!parse_u64(window.substr(0, plus), out.at_step) ||
      !parse_u64(window.substr(plus + 1), out.duration)) {
    return false;
  }
  std::istringstream nodes(body.substr(at + 1));
  std::string tok;
  // audit: exempt(waitfree, plan-string parsing at configuration time - bounded by the input text, never on an operation path)
  while (std::getline(nodes, tok, '.')) {
    int node = 0;
    if (!parse_int(tok, node)) return false;
    out.group.push_back(node);
  }
  if (out.group.empty()) return false;
  std::sort(out.group.begin(), out.group.end());
  out.group.erase(std::unique(out.group.begin(), out.group.end()),
                  out.group.end());
  return true;
}

}  // namespace

MessageFate NetFaultPlan::fate(Rng& rng) const {
  MessageFate f;
  if (drop_permille != 0 && rng.chance(drop_permille, 1000)) {
    f.lost = true;
    return f;
  }
  if (delay.permille != 0 && rng.chance(delay.permille, 1000)) {
    f.delay = 1 + rng.below(delay.max_steps);
  }
  if (reorder_permille != 0 && rng.chance(reorder_permille, 1000)) {
    f.reorder = 1 + rng.below(3);
  }
  if (dup_permille != 0 && rng.chance(dup_permille, 1000)) {
    f.dup_gap = 1 + rng.below(2);
  }
  return f;
}

bool NetFaultPlan::partitioned(std::uint64_t step, int a, int b) const {
  for (const PartitionSpec& p : partitions) {
    if (step < p.at_step || step >= p.at_step + p.duration) continue;
    const bool a_in = std::binary_search(p.group.begin(), p.group.end(), a);
    const bool b_in = std::binary_search(p.group.begin(), p.group.end(), b);
    if (a_in != b_in) return true;
  }
  return false;
}

std::string NetFaultPlan::to_string() const {
  std::ostringstream os;
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };
  if (drop_permille != 0) {
    sep();
    os << "drop:" << drop_permille;
  }
  if (delay.permille != 0) {
    sep();
    os << "delay:" << delay.permille << '+' << delay.max_steps;
  }
  if (dup_permille != 0) {
    sep();
    os << "dup:" << dup_permille;
  }
  if (reorder_permille != 0) {
    sep();
    os << "reorder:" << reorder_permille;
  }
  for (const PartitionSpec& p : partitions) {
    sep();
    os << "partition:" << p.at_step << '+' << p.duration << '@';
    for (std::size_t i = 0; i < p.group.size(); ++i) {
      if (i != 0) os << '.';
      os << p.group[i];
    }
  }
  for (const ReplicaCrashSpec& c : crashes) {
    sep();
    os << "crash:" << c.node << '@' << c.after_msgs;
  }
  for (const RecoverSpec& r : recoveries) {
    sep();
    os << "recover:" << r.node << '@' << r.after_msgs << '+' << r.downtime;
  }
  return os.str();
}

std::optional<NetFaultPlan> NetFaultPlan::parse(const std::string& text) {
  return parse(text, nullptr);
}

std::optional<NetFaultPlan> NetFaultPlan::parse(const std::string& text,
                                                std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<NetFaultPlan> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  const auto specs = fault::plan_parse::split_specs(text);
  if (!specs) {
    return fail(
        "malformed plan: want 'kind:body[,kind:body]*' with no empty "
        "specs or trailing commas");
  }
  NetFaultPlan plan;
  std::set<std::string> seen_scalars;
  const auto node_range = [&](const char* kind, int node) {
    return fail(std::string(kind) + ": node id " + std::to_string(node) +
                " out of range (0.." + std::to_string(kMaxPlanNode) + ")");
  };
  for (const auto& [kind, body] : *specs) {
    unsigned* permille = kind == "drop"      ? &plan.drop_permille
                         : kind == "dup"     ? &plan.dup_permille
                         : kind == "reorder" ? &plan.reorder_permille
                                             : nullptr;
    if ((permille != nullptr || kind == "delay") &&
        !seen_scalars.insert(kind).second) {
      return fail("duplicate " + kind +
                  ": spec (each scalar fault kind may appear at most once)");
    }
    if (permille != nullptr) {
      if (!parse_permille(body, *permille)) {
        return fail(kind + ": bad permille '" + body +
                    "' (want an integer in 0..1000)");
      }
    } else if (kind == "delay") {
      const std::size_t plus = body.find('+');
      if (plus == std::string::npos || plus == 0 ||
          !parse_permille(body.substr(0, plus), plan.delay.permille) ||
          !parse_u64(body.substr(plus + 1), plan.delay.max_steps) ||
          plan.delay.max_steps == 0) {
        return fail("delay: want '<permille>+<maxsteps>' with permille in "
                    "0..1000 and maxsteps >= 1, got '" +
                    body + "'");
      }
    } else if (kind == "partition") {
      PartitionSpec p;
      if (!parse_partition(body, p)) {
        return fail("partition: want '<step>+<len>@<node>[.<node>]*', got '" +
                    body + "'");
      }
      for (const int node : p.group) {
        if (node > kMaxPlanNode) return node_range("partition", node);
      }
      plan.partitions.push_back(std::move(p));
    } else if (kind == "crash") {
      int node = 0;
      std::uint64_t msgs = 0;
      if (!parse_spec_body(body, node, msgs, nullptr)) {
        return fail("crash: want '<node>@<msgs>', got '" + body + "'");
      }
      if (node > kMaxPlanNode) return node_range("crash", node);
      plan.crashes.push_back(ReplicaCrashSpec{node, msgs});
    } else if (kind == "recover") {
      int node = 0;
      std::uint64_t msgs = 0;
      std::uint64_t down = 0;
      if (!parse_spec_body(body, node, msgs, &down)) {
        return fail("recover: want '<node>@<msgs>+<downsteps>', got '" + body +
                    "'");
      }
      if (node > kMaxPlanNode) return node_range("recover", node);
      plan.recoveries.push_back(RecoverSpec{node, msgs, down});
    } else {
      return fail("unknown spec kind '" + kind + "'");
    }
  }
  return plan;
}

NetFaultPlan NetFaultPlan::random(Rng& rng, int replicas,
                                  std::uint64_t est_steps,
                                  unsigned loss_permille,
                                  unsigned partition_permille,
                                  unsigned crash_permille,
                                  unsigned recover_permille) {
  NetFaultPlan plan;
  if (est_steps == 0) est_steps = 1;
  plan.drop_permille = loss_permille;
  if (rng.chance(1, 2)) {
    plan.delay = DelaySpec{200, 1 + rng.below(6)};
  }
  if (rng.chance(1, 3)) plan.dup_permille = 60;
  if (rng.chance(1, 3)) plan.reorder_permille = 120;
  if (partition_permille != 0 && replicas > 1 &&
      rng.chance(partition_permille, 1000)) {
    PartitionSpec p;
    p.at_step = rng.below(est_steps);
    p.duration = 1 + rng.below(est_steps / 2 + 1);
    const std::uint64_t size =
        1 + rng.below(static_cast<std::uint64_t>(replicas - 1));
    // A random proper subset: shuffle-free reservoir over node ids.
    std::vector<int> all(static_cast<std::size_t>(replicas));
    for (int i = 0; i < replicas; ++i) all[static_cast<std::size_t>(i)] = i;
    for (std::uint64_t i = 0; i < size; ++i) {
      const std::uint64_t j = i + rng.below(all.size() - i);
      std::swap(all[i], all[j]);
    }
    p.group.assign(all.begin(),
                   all.begin() + static_cast<std::ptrdiff_t>(size));
    std::sort(p.group.begin(), p.group.end());
    plan.partitions.push_back(std::move(p));
  }
  for (int n = 0; n < replicas; ++n) {
    if (crash_permille != 0 && rng.chance(crash_permille, 1000)) {
      plan.crashes.push_back(ReplicaCrashSpec{n, rng.below(est_steps)});
    }
  }
  for (int n = 0; n < replicas; ++n) {
    if (recover_permille == 0 || !rng.chance(recover_permille, 1000)) {
      continue;
    }
    // 1–2 crash–downtime–rejoin cycles per chosen replica. Budgets are
    // short relative to est_steps so a cycle actually completes within
    // the run and the rejoin protocol gets exercised, not just armed.
    const std::uint64_t cycles = 1 + rng.below(2);
    for (std::uint64_t i = 0; i < cycles; ++i) {
      RecoverSpec spec;
      spec.node = n;
      spec.after_msgs = rng.below(est_steps / 8 + 1);
      spec.downtime = 1 + rng.below(est_steps / 6 + 1);
      plan.recoveries.push_back(spec);
    }
  }
  return plan;
}

}  // namespace compreg::net
