#include "net/socket.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace hbc::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const Endpoint& ep) {
  throw NetError(what + "(" + ep.str() + "): " + std::strerror(errno));
}

void set_nonblocking(int fd, const Endpoint& ep) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl", ep);
  }
}

sockaddr_un unix_addr(const Endpoint& ep) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  // parse() already rejected over-long paths; strncpy keeps the NUL.
  std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

sockaddr_in tcp_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) == 1) return addr;
  // Not a literal address: resolve the name (IPv4 for simplicity — the
  // default deployment shape is Unix-domain anyway).
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(ep.host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    throw NetError("resolve(" + ep.str() + "): " +
                   (rc != 0 ? ::gai_strerror(rc) : "no addresses"));
  }
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Kind::Unix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) throw NetError("endpoint '" + spec + "': empty unix path");
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw NetError("endpoint '" + spec + "': unix path longer than " +
                     std::to_string(sizeof(sockaddr_un{}.sun_path) - 1) + " bytes");
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Kind::Tcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw NetError("endpoint '" + spec + "': expected tcp:host:port");
    }
    ep.host = rest.substr(0, colon);
    unsigned long port = 0;
    try {
      std::size_t used = 0;
      port = std::stoul(rest.substr(colon + 1), &used);
      if (used != rest.size() - colon - 1) port = 0;
    } catch (const std::exception&) {
      port = 0;
    }
    if (port == 0 || port > 65535) {
      throw NetError("endpoint '" + spec + "': invalid port");
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  throw NetError("endpoint '" + spec +
                 "': expected unix:/path or tcp:host:port");
}

std::string Endpoint::str() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Wakeup::Wakeup() {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    throw NetError(std::string("pipe2: ") + std::strerror(errno));
  }
  read_ = Socket(fds[0]);
  write_ = Socket(fds[1]);
}

void Wakeup::notify() noexcept {
  const char b = 1;
  while (::write(write_.fd(), &b, 1) < 0 && errno == EINTR) {
  }
}

void Wakeup::drain() noexcept {
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(read_.fd(), buf, sizeof(buf));
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    return;  // empty (EAGAIN) or closed
  }
}

Socket listen_on(const Endpoint& ep, int backlog) {
  const int family = ep.kind == Endpoint::Kind::Unix ? AF_UNIX : AF_INET;
  Socket s(::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!s.valid()) throw_errno("socket", ep);

  if (ep.kind == Endpoint::Kind::Unix) {
    // A previous coordinator's socket file would make bind fail with
    // EADDRINUSE even though nobody is listening; remove it. A live
    // listener is still protected on the connect side (workers would reach
    // whichever process bound last, with a fingerprint handshake to catch
    // true confusion).
    ::unlink(ep.path.c_str());
    sockaddr_un addr = unix_addr(ep);
    if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      throw_errno("bind", ep);
    }
  } else {
    const int one = 1;
    ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = tcp_addr(ep);
    if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      throw_errno("bind", ep);
    }
  }
  if (::listen(s.fd(), backlog) < 0) throw_errno("listen", ep);
  set_nonblocking(s.fd(), ep);
  return s;
}

Socket connect_to(const Endpoint& ep) {
  const int family = ep.kind == Endpoint::Kind::Unix ? AF_UNIX : AF_INET;
  Socket s(::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!s.valid()) throw_errno("socket", ep);

  int rc = 0;
  if (ep.kind == Endpoint::Kind::Unix) {
    sockaddr_un addr = unix_addr(ep);
    rc = ::connect(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    sockaddr_in addr = tcp_addr(ep);
    rc = ::connect(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (rc < 0) throw_errno("connect", ep);
  if (ep.kind == Endpoint::Kind::Tcp) {
    const int one = 1;
    ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  set_nonblocking(s.fd(), ep);
  return s;
}

Socket accept_on(const Socket& listener) {
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd >= 0) {
    Socket s(fd);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return s;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED || errno == EINTR) {
    return Socket{};
  }
  throw NetError(std::string("accept: ") + std::strerror(errno));
}

int poll_wait(std::vector<pollfd>& fds, int timeout_ms) {
  for (;;) {
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n >= 0) return n;
    if (errno != EINTR) {
      throw NetError(std::string("poll: ") + std::strerror(errno));
    }
  }
}

Conn::Io Conn::pump_read() {
  if (!sock_.valid()) return Io::Failed;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(sock_.fd(), buf, sizeof(buf));
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
      continue;
    }
    if (n == 0) return Io::Closed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Io::Ok;
    if (errno == EINTR) continue;
    return Io::Failed;
  }
}

Conn::Io Conn::pump_write() {
  if (!sock_.valid()) return Io::Failed;
  while (out_pos_ < out_.size()) {
    // MSG_NOSIGNAL: a peer that died mid-write must surface as EPIPE, not
    // kill the process with SIGPIPE.
    const ssize_t n = ::send(sock_.fd(), out_.data() + out_pos_,
                             out_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return Io::Ok;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE and friends: peer is gone.
    return errno == EPIPE || errno == ECONNRESET ? Io::Closed : Io::Failed;
  }
  out_.clear();
  out_pos_ = 0;
  return Io::Ok;
}

void Conn::send(const std::vector<std::uint8_t>& frame_bytes) {
  if (chaos_) {
    chaos_->on_send(frame_bytes, out_);
    return;
  }
  out_.insert(out_.end(), frame_bytes.begin(), frame_bytes.end());
}

void Conn::arm_chaos(std::shared_ptr<const ChaosPlan> plan, std::uint64_t stream_id) {
  chaos_ = plan ? std::make_unique<ChaosInjector>(std::move(plan), stream_id)
                : nullptr;
}

void Conn::pump_chaos() {
  if (chaos_) chaos_->release_due(out_);
}

void Conn::enforce_frame_deadline() const {
  if (!frame_overdue()) return;
  throw NetError("frame deadline (" + std::to_string(frame_deadline_.count()) +
                 "ms) exceeded by " + peer_ +
                 ": partial frame stuck at the head of the stream");
}

wire::DecodeStatus Conn::next_frame(wire::Frame& frame) {
  if (poisoned_ != wire::DecodeStatus::Ok) return poisoned_;
  std::span<const std::uint8_t> pending(in_.data() + in_pos_, in_.size() - in_pos_);
  std::size_t consumed = 0;
  const wire::DecodeStatus s = wire::extract_frame(pending, frame, consumed);
  if (s == wire::DecodeStatus::Ok) {
    in_pos_ += consumed;
    partial_ = false;
    // Compact once the consumed prefix dominates, amortizing the memmove.
    if (in_pos_ > 4096 && in_pos_ * 2 > in_.size()) {
      in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_pos_));
      in_pos_ = 0;
    }
    return s;
  }
  if (s != wire::DecodeStatus::NeedMore) {
    poisoned_ = s;
    return s;
  }
  // NeedMore: track how long a partial frame has been dribbling in so the
  // frame deadline can cull a slow-loris peer.
  if (in_pos_ == in_.size()) {
    partial_ = false;  // nothing buffered at all — an idle peer is fine
  } else if (!partial_) {
    partial_ = true;
    partial_since_ = std::chrono::steady_clock::now();
  }
  return s;
}

}  // namespace hbc::net
