// File-backed stable storage for real replica processes.
//
// The simulated DurableMedium (net/durable_state.h) models "what a
// crash cannot erase" as plain fields the SimNet keeps across recover
// cycles. A real replica gets kill-9'd, so its stable storage must be a
// real file with crash-safe update discipline:
//
//   persist(ts, val):  write the whole record to <path>.tmp, fsync it,
//                      rename() over <path>, fsync the directory. The
//                      rename is atomic, so a SIGKILL (or power cut) at
//                      any instant leaves either the old record or the
//                      new one — never a torn mix. Monotone in ts and
//                      idempotent, mirroring DurableRecord::persist.
//
//   reload():          parse <path> if it exists. A missing file means
//                      the replica never acknowledged anything (the
//                      ack-before-persist discipline guarantees it), so
//                      a blank start is safe; `existed()` tells the
//                      replica loop whether this is a fresh boot or a
//                      post-crash restart that must run the catch-up
//                      protocol before serving.
//
// Record format (text, versioned): "compreg-durable v1\n<ts> <val>\n".
#pragma once

#include <cstdint>
#include <string>

#include "net/durable_state.h"

namespace compreg::net::real {

class FileDurable {
 public:
  // Reads the record at `path` if present (see existed()).
  explicit FileDurable(std::string path);

  FileDurable(const FileDurable&) = delete;
  FileDurable& operator=(const FileDurable&) = delete;

  // True when a record existed at construction: this process is a
  // restart of a replica that had acknowledged state.
  bool existed() const { return existed_; }

  // fsync-then-rename update; no-op unless ts is newer (stable storage
  // never regresses). Aborts the process on I/O errors: a replica that
  // cannot persist must not ack.
  void persist(std::uint64_t ts, std::uint64_t val);

  // Re-reads the file (restart-in-place for tests; the constructor
  // already loaded it once).
  void reload();

  std::uint64_t ts() const { return ts_; }
  std::uint64_t value() const { return val_; }
  const DurableStats& stats() const { return stats_; }

 private:
  std::string path_;
  std::uint64_t ts_ = 0;
  std::uint64_t val_ = 0;
  bool existed_ = false;
  DurableStats stats_;
};

}  // namespace compreg::net::real
