#pragma once

// hbc::net transport — thin, dependency-free POSIX socket layer under the
// wire codec: endpoint parsing (Unix-domain by default, TCP optional),
// RAII fds, nonblocking accept/connect, a poll() wrapper, a self-pipe
// Wakeup that other threads use to interrupt a poll(), and Conn — a
// buffered frame pump (per-connection read/write byte buffers with
// streaming frame extraction) that both the coordinator's event loop and
// the worker loop are built on.
//
// Error model: setup failures (parse, bind, listen, connect) throw
// NetError with the syscall, endpoint, and errno text — the tools catch it
// and exit nonzero with that one clear line instead of a raw exception.
// Steady-state I/O failures are returned as Conn::Io statuses so event
// loops can treat a dead peer as data, not control flow.

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <poll.h>

#include "net/chaos.hpp"
#include "net/wire.hpp"

namespace hbc::net {

/// Transport setup failure with full context, e.g.
///   "bind(unix:/run/hbc.sock): Permission denied".
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Endpoint {
  enum class Kind : std::uint8_t { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;  // Unix
  std::string host;  // TCP
  std::uint16_t port = 0;

  /// "unix:/path/to.sock" or "tcp:host:port". Throws NetError on anything
  /// else (including a Unix path longer than sockaddr_un can hold).
  static Endpoint parse(const std::string& spec);

  std::string str() const;
  bool valid() const noexcept { return kind == Kind::Tcp ? !host.empty() : !path.empty(); }
};

/// RAII file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;
  /// Release ownership without closing.
  int release() noexcept {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Self-pipe that lets any thread wake a poll() loop: the loop polls
/// fd() for POLLIN and calls drain() when it fires. Both ends are
/// nonblocking and close-on-exec. Throws NetError if the pipe can't be
/// created.
class Wakeup {
 public:
  Wakeup();

  /// Write one byte (thread-safe). A full pipe already holds a pending
  /// wake, so EAGAIN is ignored.
  void notify() noexcept;
  int fd() const noexcept { return read_.fd(); }
  /// Consume every pending wake byte.
  void drain() noexcept;

 private:
  Socket read_;
  Socket write_;
};

/// Bind + listen on `ep` (a stale Unix socket file is unlinked first so
/// coordinator restarts don't need manual cleanup). Nonblocking. Throws
/// NetError.
Socket listen_on(const Endpoint& ep, int backlog = 64);

/// Blocking connect, then switched to nonblocking for the pump. Throws
/// NetError (callers implementing reconnect-with-backoff catch it).
Socket connect_to(const Endpoint& ep);

/// Accept one pending connection (nonblocking listener). Returns an
/// invalid Socket when none is pending; throws NetError on real failure.
Socket accept_on(const Socket& listener);

/// poll() with EINTR retry. Returns the number of ready fds (0 = timeout).
int poll_wait(std::vector<pollfd>& fds, int timeout_ms);

/// One buffered, nonblocking connection: bytes in, frames out.
class Conn {
 public:
  Conn(Socket sock, std::string peer) : sock_(std::move(sock)), peer_(std::move(peer)) {}

  int fd() const noexcept { return sock_.fd(); }
  const std::string& peer() const noexcept { return peer_; }
  bool open() const noexcept { return sock_.valid(); }
  void close() noexcept { sock_.close(); }

  enum class Io : std::uint8_t {
    Ok,      // made progress (or nothing to do)
    Closed,  // orderly EOF from the peer
    Failed,  // socket error; the connection is dead
  };

  /// Drain the socket into the read buffer (until EAGAIN).
  Io pump_read();
  /// Flush as much of the write buffer as the socket accepts.
  Io pump_write();
  bool wants_write() const noexcept { return out_pos_ < out_.size(); }
  std::size_t pending_bytes() const noexcept { return out_.size() - out_pos_; }

  /// Queue one encoded frame for writing (pump_write sends it). When a
  /// ChaosInjector is armed the frame is routed through it first; inert
  /// connections pay one null-pointer test.
  void send(const std::vector<std::uint8_t>& frame_bytes);

  /// Extract the next complete frame from the read buffer. Ok consumes it;
  /// NeedMore means wait for more bytes; anything else is a protocol error
  /// at the head of the stream — the connection should be dropped (the
  /// status is sticky: once poisoned, always poisoned).
  wire::DecodeStatus next_frame(wire::Frame& frame);

  // --- chaos injection (net/chaos.hpp) ------------------------------------

  /// Route every subsequent send through a seeded fault injector.
  /// `stream_id` keys the plan's hash so each connection gets its own
  /// deterministic fate stream. Null plan disarms.
  void arm_chaos(std::shared_ptr<const ChaosPlan> plan, std::uint64_t stream_id);

  /// Move chaos-delayed frames whose hold time has passed into the write
  /// buffer. Event loops call this once per pass; a no-op when unarmed.
  void pump_chaos();

  /// Frames still held by the injector (the loop should keep pumping).
  bool chaos_pending() const noexcept { return chaos_ && chaos_->holding(); }

  // --- slow-writer (slow-loris) detection ---------------------------------

  /// Cull a peer that keeps a frame incomplete longer than `deadline`
  /// (e.g. dribbling one byte per poll tick, which would otherwise pin a
  /// connection slot forever). 0 disables (the default).
  void set_frame_deadline(std::chrono::milliseconds deadline) noexcept {
    frame_deadline_ = deadline;
  }

  /// True when a partial frame has been stuck at the head of the read
  /// buffer past the deadline. Event loops treat this like a dead peer.
  bool frame_overdue() const noexcept {
    return frame_deadline_.count() > 0 && partial_ &&
           std::chrono::steady_clock::now() - partial_since_ > frame_deadline_;
  }

  /// frame_overdue(), escalated: throws NetError naming the peer and the
  /// deadline. For callers that prefer the transport's typed error to a
  /// silent cull.
  void enforce_frame_deadline() const;

 private:
  Socket sock_;
  std::string peer_;
  std::vector<std::uint8_t> in_;
  std::size_t in_pos_ = 0;  // consumed prefix, compacted lazily
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;
  wire::DecodeStatus poisoned_ = wire::DecodeStatus::Ok;
  std::unique_ptr<ChaosInjector> chaos_;  // null = inert
  std::chrono::milliseconds frame_deadline_{0};
  bool partial_ = false;  // head-of-buffer frame incomplete since partial_since_
  std::chrono::steady_clock::time_point partial_since_{};
};

}  // namespace hbc::net
