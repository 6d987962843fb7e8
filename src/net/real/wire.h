// Wire format for the real transport (src/net/real/).
//
// The simulated network moves closures; a real socket moves bytes, so
// the real path fixes a concrete message vocabulary — the six ABD
// protocol kinds of net/abd_core.h plus the register service's — and a
// byte-exact encoding for them. Every message is one *frame* on a
// stream socket:
//
//   [u32-le payload length][payload]
//
// with a fixed-size payload:
//
//   [u8 type][u32-le src][u64-le op][u64-le ts][u64-le val]
//
// `src` is the logical node id of the sender (replicas 0..2f, client
// endpoints above that), which is how a replica learns which connection
// belongs to which peer — there is no separate handshake, the first
// frame on a connection identifies it. `op` is the client's operation
// sequence number (echoed in replies, so stale replies from earlier
// attempts are filtered) or the rejoin incarnation tag for the sync
// pair. Encoding is explicitly little-endian byte-by-byte, so the
// format is independent of host endianness and struct layout.
//
// FrameReader reassembles frames from arbitrary read() chunk
// boundaries and flags malformed input (bad length, bad type, short
// payload) as corrupt instead of crashing — a robustness-first parser
// for bytes that crossed a process boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/abd_core.h"

namespace compreg::net::real {

enum class MsgType : std::uint8_t {
  // The ABD protocol kinds of net/abd_core.h, value for value.
  kStore = 1,
  kStoreAck = 2,
  kQuery = 3,
  kQueryReply = 4,
  kSyncReq = 5,    // op = the rejoin incarnation tag
  kSyncReply = 6,
  // Client-facing register service vocabulary (src/server/). These
  // types flow only between external clients and the server front-end;
  // replicas never see them (their event loop handles 1..6 only).
  kWriteReq = 7,        // WRITE(val): op = client op seq, val = payload
  kReadReq = 8,         // READ: op = client op seq
  kWriteOk = 9,         // ts = server-assigned timestamp of the write
  kReadOk = 10,         // (ts, val) = the collected register state
  kUnavailableResp = 11,  // retry budget spent against the fleet
  kBusyResp = 12,         // admission control rejected the op (typed Busy)
};

constexpr bool same_kind(MsgType t, AbdKind k) {
  return static_cast<int>(t) == static_cast<int>(k);
}
static_assert(same_kind(MsgType::kStore, AbdKind::kStore) &&
                  same_kind(MsgType::kStoreAck, AbdKind::kStoreAck) &&
                  same_kind(MsgType::kQuery, AbdKind::kQuery) &&
                  same_kind(MsgType::kQueryReply, AbdKind::kQueryReply) &&
                  same_kind(MsgType::kSyncReq, AbdKind::kSyncReq) &&
                  same_kind(MsgType::kSyncReply, AbdKind::kSyncReply),
              "wire types 1..6 are the core's protocol kinds");

struct WireMsg {
  MsgType type = MsgType::kStore;
  std::uint32_t src = 0;  // logical node id of the sender
  std::uint64_t op = 0;   // client op seq / rejoin incarnation tag
  std::uint64_t ts = 0;
  std::uint64_t val = 0;

  bool operator==(const WireMsg&) const = default;
};

// A protocol message as node `src` sends it, and a frame as the core
// sees it. A service frame (types 7..12) becomes a kind that no replica
// answers.
inline WireMsg to_wire(std::uint32_t src, const AbdMsg<std::uint64_t>& m) {
  return WireMsg{static_cast<MsgType>(m.kind), src, m.op, m.ts, m.val};
}
inline AbdMsg<std::uint64_t> to_abd(const WireMsg& m) {
  return AbdMsg<std::uint64_t>{static_cast<AbdKind>(m.type), m.op, m.ts,
                               m.val};
}

inline constexpr std::size_t kWireMsgBytes = 1 + 4 + 8 + 8 + 8;
inline constexpr std::size_t kFrameHeaderBytes = 4;
// Frames are currently all kWireMsgBytes; anything larger than this
// bound is corruption, not a future extension.
inline constexpr std::size_t kMaxFramePayload = 256;

// Appends one length-prefixed frame to `out`.
void append_frame(std::vector<unsigned char>& out, const WireMsg& msg);

// Decodes one payload (no length prefix). False on bad size/type.
bool decode_payload(const unsigned char* data, std::size_t len, WireMsg& out);

// Incremental frame reassembly over a stream connection.
class FrameReader {
 public:
  void feed(const unsigned char* data, std::size_t n);

  // Next complete, well-formed frame; nullopt when more bytes are
  // needed or the stream has been declared corrupt.
  std::optional<WireMsg> next();

  // A malformed frame poisons the connection (the transport closes it;
  // the retry layer treats the loss like any other).
  bool corrupt() const { return corrupt_; }

  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
};

}  // namespace compreg::net::real
