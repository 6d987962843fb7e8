// Schedule policies: who takes the next atomic step.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace compreg::sched {

// Chooses the next process to take one atomic step. `runnable` is the
// sorted list of process ids that have not completed; the returned id
// must be one of them.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  virtual int pick(const std::vector<int>& runnable) = 0;
};

// Uniformly random among runnable processes; fully determined by seed.
class RandomPolicy final : public SchedulePolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}
  int pick(const std::vector<int>& runnable) override;

 private:
  Rng rng_;
};

// Cycles through runnable processes in id order.
class RoundRobinPolicy final : public SchedulePolicy {
 public:
  int pick(const std::vector<int>& runnable) override;

 private:
  int last_ = -1;
};

// The rationing adversary of the wait-freedom experiments: `victim`
// takes one step per `period` picks while anyone else is runnable
// (every other pick goes to the lowest-id other process), and every
// step once it runs alone. A victim that retries on interference is
// starved by it; a wait-free one finishes in its bound regardless.
class RationPolicy final : public SchedulePolicy {
 public:
  RationPolicy(int victim, int period) : victim_(victim), period_(period) {}
  int pick(const std::vector<int>& runnable) override;

 private:
  const int victim_;
  const int period_;
  std::uint64_t step_ = 0;
};

// Follows an explicit script of process ids (used to reproduce the
// executions of paper Figure 4); panics if a scripted process is not
// runnable, and falls back to round-robin when the script is exhausted.
class ScriptPolicy final : public SchedulePolicy {
 public:
  explicit ScriptPolicy(std::vector<int> script)
      : script_(std::move(script)) {}
  int pick(const std::vector<int>& runnable) override;

  // Steps of the script consumed so far.
  std::size_t position() const { return pos_; }

 private:
  std::vector<int> script_;
  std::size_t pos_ = 0;
  RoundRobinPolicy fallback_;
};

// Probabilistic-concurrency-testing style: random priorities, run the
// highest-priority runnable process, demote it at `depth` randomly
// chosen step indices. Finds rare orderings much faster than uniform
// random for bugs of small "depth".
class PctPolicy final : public SchedulePolicy {
 public:
  PctPolicy(std::uint64_t seed, int num_procs, int depth,
            std::uint64_t expected_steps);
  int pick(const std::vector<int>& runnable) override;

 private:
  Rng rng_;
  std::vector<std::uint64_t> priority_;  // higher runs first
  std::vector<std::uint64_t> change_points_;
  std::uint64_t step_ = 0;
  std::uint64_t next_low_priority_ = 0;
};

// Picks runnable[index] following a prefix of branch indices, then
// index 0 forever. Records the number of runnable processes at every
// step. This is the engine of BoundedExhaustive exploration.
class ReplayIndexPolicy final : public SchedulePolicy {
 public:
  explicit ReplayIndexPolicy(std::vector<std::uint32_t> prefix)
      : prefix_(std::move(prefix)) {}
  int pick(const std::vector<int>& runnable) override;

  const std::vector<std::uint32_t>& branching() const { return branching_; }

 private:
  std::vector<std::uint32_t> prefix_;
  std::vector<std::uint32_t> branching_;
  std::size_t pos_ = 0;
};

}  // namespace compreg::sched
