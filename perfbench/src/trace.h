// In-memory spans recorded from the benchmark's own calls into each
// layer, and the tracing Transport decorator that puts spans around the
// ABD client's socket traffic.
//
// A span has a name, start, end, the span that caused it (parent) and
// the operation id shared by every span of one operation. Each
// recording thread owns one SpanBuffer (no sharing, no locks); spans
// nest by a per-thread stack, so a child always ends before its parent.
// The buffer is a ring of fixed capacity: a long run keeps its newest
// spans and counts the rest as overwritten, so memory stays bounded and
// every operation pays the same tracing cost. Buffers are written out
// once, when the run ends (write_spans), and summarised per name into
// count, total time and self time (span time minus the time its
// children cover).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "net/real/transport.h"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;      // per-buffer sequence number, 1-based
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // operation id shared by its spans
  const char* name = "";
  std::int64_t start_ns = 0;  // since the buffer's origin
  std::int64_t end_ns = 0;
};

class SpanBuffer {
 public:
  SpanBuffer(int thread, Clock::time_point origin,
             std::size_t capacity = std::size_t{1} << 17);

  void set_op(std::uint64_t op) { op_ = op; }
  std::uint64_t begin(const char* name);
  void end(std::uint64_t id);

  int thread() const { return thread_; }
  // Retained spans, oldest first.
  std::vector<Span> spans() const;

 private:
  int thread_;
  Clock::time_point origin_;
  std::vector<Span> ring_;
  std::vector<std::uint64_t> stack_;
  std::uint64_t next_id_ = 1;
  std::uint64_t op_ = 0;
};

// RAII span; a null buffer makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name)
      : buf_(buf), id_(buf ? buf->begin(name) : 0) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  std::uint64_t id_;
};

// Owns every SpanBuffer of a traced run. Take each thread's buffer
// before starting the thread; untraced code passes nullptr instead.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  SpanBuffer* buffer(std::size_t capacity = std::size_t{1} << 17) {
    bufs_.push_back(std::make_unique<SpanBuffer>(
        static_cast<int>(bufs_.size()), origin_, capacity));
    return bufs_.back().get();
  }
  std::vector<const SpanBuffer*> buffers() const {
    std::vector<const SpanBuffer*> out;
    for (const auto& b : bufs_) out.push_back(b.get());
    return out;
  }

 private:
  Clock::time_point origin_;
  std::vector<std::unique_ptr<SpanBuffer>> bufs_;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

// Per-name totals over every retained span of every buffer. A span's
// self time is its duration minus its retained children's durations
// (children of one parent run one after another on its thread).
std::map<std::string, SpanTotals> summarize(
    const std::vector<const SpanBuffer*>& bufs);

// Writes every retained span as one tab-separated line. Returns false
// if the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& bufs);

// Prints the per-name summary table.
void print_span_summary(const std::map<std::string, SpanTotals>& totals);

// Transport decorator: one span per send and per poll, plus frame
// counts, around any Transport. Everything else is forwarded.
class TracingTransport final : public compreg::net::real::Transport {
 public:
  TracingTransport(compreg::net::real::Transport& inner, SpanBuffer* spans)
      : inner_(inner), spans_(spans) {}

  int self() const override { return inner_.self(); }
  void send(int dst, const compreg::net::real::WireMsg& msg) override {
    ScopedSpan s(spans_, "net.real.transport.send");
    inner_.send(dst, msg);
    ++frames_sent_;
  }
  std::optional<compreg::net::real::Delivery> poll(
      const compreg::net::Deadline& deadline) override {
    ScopedSpan s(spans_, "net.real.transport.poll");
    auto d = inner_.poll(deadline);
    if (d) ++frames_received_;
    return d;
  }
  compreg::net::real::TransportStats& stats() override {
    return inner_.stats();
  }

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }

 private:
  compreg::net::real::Transport& inner_;
  SpanBuffer* spans_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
};

}  // namespace perfbench
