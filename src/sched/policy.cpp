#include "sched/policy.h"

#include <algorithm>

#include "util/assert.h"

namespace compreg::sched {

int RandomPolicy::pick(const std::vector<int>& runnable) {
  COMPREG_CHECK(!runnable.empty());
  return runnable[rng_.below(runnable.size())];
}

int RoundRobinPolicy::pick(const std::vector<int>& runnable) {
  COMPREG_CHECK(!runnable.empty());
  // First runnable id strictly greater than the last pick, else wrap.
  for (int id : runnable) {
    if (id > last_) {
      last_ = id;
      return id;
    }
  }
  last_ = runnable.front();
  return last_;
}

int RationPolicy::pick(const std::vector<int>& runnable) {
  COMPREG_CHECK(!runnable.empty() && period_ >= 1);
  ++step_;
  if (step_ % static_cast<std::uint64_t>(period_) != 0) {
    for (int id : runnable) {
      if (id != victim_) return id;
    }
  }
  for (int id : runnable) {
    if (id == victim_) return id;
  }
  return runnable.front();
}

int ScriptPolicy::pick(const std::vector<int>& runnable) {
  if (pos_ >= script_.size()) return fallback_.pick(runnable);
  const int want = script_[pos_++];
  COMPREG_CHECK(std::find(runnable.begin(), runnable.end(), want) !=
                    runnable.end(),
                "scripted process %d not runnable at step %zu", want,
                pos_ - 1);
  return want;
}

PctPolicy::PctPolicy(std::uint64_t seed, int num_procs, int depth,
                     std::uint64_t expected_steps)
    : rng_(seed), priority_(static_cast<std::size_t>(num_procs)) {
  // Random distinct high priorities; demotions assign descending low
  // priorities so earlier demotions stay above later ones.
  for (std::size_t i = 0; i < priority_.size(); ++i) {
    priority_[i] = (rng_() >> 1) + priority_.size();
  }
  next_low_priority_ = priority_.size();
  for (int i = 0; i < depth; ++i) {
    change_points_.push_back(rng_.below(expected_steps == 0 ? 1
                                                            : expected_steps));
  }
  std::sort(change_points_.begin(), change_points_.end());
}

int PctPolicy::pick(const std::vector<int>& runnable) {
  COMPREG_CHECK(!runnable.empty());
  int best = runnable.front();
  for (int id : runnable) {
    if (priority_[static_cast<std::size_t>(id)] >
        priority_[static_cast<std::size_t>(best)]) {
      best = id;
    }
  }
  const bool demote =
      !change_points_.empty() &&
      std::binary_search(change_points_.begin(), change_points_.end(), step_);
  if (demote) {
    COMPREG_CHECK(next_low_priority_ > 0);
    priority_[static_cast<std::size_t>(best)] = --next_low_priority_;
  }
  ++step_;
  return best;
}

int ReplayIndexPolicy::pick(const std::vector<int>& runnable) {
  COMPREG_CHECK(!runnable.empty());
  branching_.push_back(static_cast<std::uint32_t>(runnable.size()));
  std::uint32_t index = 0;
  if (pos_ < prefix_.size()) {
    index = prefix_[pos_];
    COMPREG_CHECK(index < runnable.size(),
                  "replay prefix index %u out of range %zu at step %zu",
                  index, runnable.size(), pos_);
  }
  ++pos_;
  return runnable[index];
}

}  // namespace compreg::sched
