#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <ctime>

#include "util.h"

namespace perfbench {
namespace {

void PutU32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(value >> (8 * i)));
}
void PutU64(std::string& out, std::uint64_t value) {
  PutU32(out, static_cast<std::uint32_t>(value));
  PutU32(out, static_cast<std::uint32_t>(value >> 32));
}
std::uint64_t GetLe(const char* p, int bytes) {
  std::uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) {
    value |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return value;
}
std::string Frame(const std::string& payload) {
  std::string frame;
  PutU32(frame, static_cast<std::uint32_t>(payload.size()));
  return frame + payload;
}

bool DecodePayload(const char* p, std::size_t size, Reply* out) {
  if (size < 9) return false;
  out->type = static_cast<std::uint8_t>(p[0]);
  out->entries.clear();
  if (out->type == kReplyFrame) {
    if (size < 14) return false;
    out->status = static_cast<std::uint8_t>(p[9]);
    const std::uint64_t count = GetLe(p + 10, 4);
    if (size != 14 + 16 * count) return false;
    for (std::uint64_t i = 0; i < count; ++i) {
      const char* e = p + 14 + 16 * i;
      out->entries.emplace_back(GetLe(e, 8), GetLe(e + 8, 8));
    }
  } else if (out->type == kUpdateAckFrame) {
    if (size != 10) return false;
    out->outcome = static_cast<std::uint8_t>(p[9]);
  }
  return true;
}

}  // namespace

std::string EncodeQuery(std::uint64_t tenant, std::uint32_t k,
                        std::uint32_t r) {
  std::string payload(1, static_cast<char>(1));
  PutU64(payload, tenant);
  PutU32(payload, k);
  PutU32(payload, r);
  return Frame(payload);
}

std::string EncodeUpdate(bool insert, std::uint64_t u, std::uint64_t v) {
  std::string payload(1, static_cast<char>(4));
  payload.push_back(static_cast<char>(insert ? 1 : 0));
  PutU64(payload, u);
  PutU64(payload, v);
  return Frame(payload);
}

WireConn::WireConn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect(): " + error);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

WireConn::WireConn(WireConn&& other) noexcept
    : fd_(other.fd_), inbuf_(std::move(other.inbuf_)) {
  other.fd_ = -1;
}

void WireConn::SendAll(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send(): " + std::string(std::strerror(errno)));
    sent += static_cast<std::size_t>(n);
  }
}

bool WireConn::ReadFrames(std::vector<Reply>* out) {
  char buf[1 << 16];
  const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
  if (n <= 0) return false;
  inbuf_.append(buf, static_cast<std::size_t>(n));
  std::size_t at = 0;
  while (inbuf_.size() - at >= 4) {
    const std::uint64_t length = GetLe(inbuf_.data() + at, 4);
    if (inbuf_.size() - at - 4 < length) break;
    Reply reply;
    if (!DecodePayload(inbuf_.data() + at + 4, length, &reply)) return false;
    out->push_back(std::move(reply));
    at += 4 + length;
  }
  inbuf_.erase(0, at);
  return true;
}

std::uint64_t OpenLoopResult::failed() const {
  std::uint64_t failed = 0;
  for (bool b : ok) failed += b ? 0 : 1;
  return failed;
}

std::vector<double> OpenLoopResult::LatencyMs() const {
  std::vector<double> out(ok.size());
  for (std::size_t i = 0; i < ok.size(); ++i) {
    out[i] = ok[i] ? static_cast<double>(done_ns[i] - scheduled_ns[i]) / 1e6
                   : std::numeric_limits<double>::infinity();
  }
  return out;
}

std::vector<double> OpenLoopResult::LagUs() const {
  std::vector<double> out(sent_ns.size());
  for (std::size_t i = 0; i < sent_ns.size(); ++i) {
    out[i] = static_cast<double>(sent_ns[i] - scheduled_ns[i]) / 1e3;
  }
  return out;
}

OpenLoopResult RunOpenLoop(std::vector<WireConn>& conns,
                           const std::vector<std::string>& frames,
                           const std::vector<double>& offsets_s,
                           const ReplyCheck& check, double drain_timeout_s) {
  const std::size_t total = frames.size();
  const std::size_t num_conns = conns.size();
  OpenLoopResult result;
  result.scheduled_ns.resize(total);
  result.sent_ns.resize(total);
  result.done_ns.assign(total, 0);
  result.ok.assign(total, false);
  result.backlog.resize(total);
  if (total == 0) return result;

  const std::int64_t start = NowNs() + 2'000'000;  // 2 ms to spin up
  for (std::size_t i = 0; i < total; ++i) {
    result.scheduled_ns[i] = start + static_cast<std::int64_t>(offsets_s[i] * 1e9);
  }
  const std::int64_t deadline =
      result.scheduled_ns.back() + static_cast<std::int64_t>(drain_timeout_s * 1e9);

  // One thread sends on schedule and reads replies in between, so the
  // generator adds no thread of its own beside the server's.
  std::vector<pollfd> fds(num_conns);
  for (std::size_t c = 0; c < num_conns; ++c) fds[c] = {conns[c].fd(), POLLIN, 0};
  std::vector<std::size_t> replies_on(num_conns, 0);
  std::vector<Reply> replies;
  std::size_t next = 0;
  std::size_t received = 0;
  try {
    while (received < total) {
      std::int64_t now = NowNs();
      while (next < total && result.scheduled_ns[next] <= now) {
        conns[next % num_conns].SendAll(frames[next]);
        now = NowNs();
        result.sent_ns[next] = now;
        result.backlog[next] = static_cast<std::uint32_t>(next + 1 - received);
        ++next;
      }
      if (now > deadline) break;
      const std::int64_t wait_ns =
          (next < total ? result.scheduled_ns[next] : deadline) - now;
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
      now = NowNs();
      for (std::size_t c = 0; c < num_conns; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        replies.clear();
        const bool alive = conns[c].ReadFrames(&replies);
        for (const Reply& reply : replies) {
          const std::size_t index = c + replies_on[c]++ * num_conns;
          if (index >= next) throw std::runtime_error("reply to an unsent request");
          result.done_ns[index] = now;
          result.ok[index] = check(index, reply);
          ++received;
        }
        if (!alive) throw std::runtime_error("connection closed");
      }
    }
  } catch (const std::exception&) {
    result.stream_intact = false;
  }
  result.stream_intact = result.stream_intact && received == total;
  return result;
}

}  // namespace perfbench
