// The benchmark's own client for the server's length-prefixed binary
// protocol, and the open-loop load generator built on it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One decoded server frame (only the fields the benchmark checks).
struct Reply {
  std::uint8_t type = 0;     // 1 reply, 2 stats, 3 error, 4 update ack
  std::uint8_t status = 0;   // reply: 0 = ok
  std::uint8_t outcome = 0;  // update ack: 0 noop, 1 applied, 2 unsupported
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;  // (v, score)
};

inline constexpr std::uint8_t kReplyFrame = 1;
inline constexpr std::uint8_t kUpdateAckFrame = 4;

std::string EncodeQuery(std::uint64_t tenant, std::uint32_t k, std::uint32_t r);
std::string EncodeUpdate(bool insert, std::uint64_t u, std::uint64_t v);

/// A blocking loopback TCP connection (TCP_NODELAY) to 127.0.0.1:port.
class WireConn {
 public:
  explicit WireConn(std::uint16_t port);
  ~WireConn();
  WireConn(WireConn&& other) noexcept;
  WireConn& operator=(WireConn&&) = delete;
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  int fd() const { return fd_; }
  void SendAll(const std::string& bytes);
  /// Reads what is available (the caller polled for it) and decodes every
  /// complete frame into `out`. Returns false on EOF, error or a frame that
  /// does not decode.
  bool ReadFrames(std::vector<Reply>* out);

 private:
  int fd_ = -1;
  std::string inbuf_;
};

/// Outcome of one open-loop phase, per request in stream order.
struct OpenLoopResult {
  std::vector<std::int64_t> scheduled_ns;  // when the request was due
  std::vector<std::int64_t> sent_ns;       // when the generator sent it
  std::vector<std::int64_t> done_ns;       // reply arrival; 0 if none
  std::vector<bool> ok;                    // reply arrived and checked out
  std::vector<std::uint32_t> backlog;      // requests outstanding at send
  bool stream_intact = true;  // false: replies lost, later phases invalid

  std::uint64_t failed() const;
  /// Latency from the scheduled send (ms); failed requests are +inf, so they
  /// miss any latency limit.
  std::vector<double> LatencyMs() const;
  /// How late the generator sent each request (us).
  std::vector<double> LagUs() const;
};

/// Checks reply `reply` to request `index` of the phase. Runs on the
/// reader thread.
using ReplyCheck = std::function<bool(std::size_t index, const Reply& reply)>;

/// Sends `frames[i]` at `offsets_s[i]` seconds after the phase start over
/// connection i % conns.size(), never waiting for replies, and timestamps
/// each reply against its request's scheduled send time, so a stall is
/// charged to every request queued behind it. Replies on a connection
/// arrive in submission order, which is how they are matched. Gives up
/// `drain_timeout_s` after the last scheduled send.
OpenLoopResult RunOpenLoop(std::vector<WireConn>& conns,
                           const std::vector<std::string>& frames,
                           const std::vector<double>& offsets_s,
                           const ReplyCheck& check, double drain_timeout_s);

}  // namespace perfbench

