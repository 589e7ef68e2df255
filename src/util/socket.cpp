#include "util/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/fault.hpp"
#include "util/params.hpp"

namespace pns::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path))
    throw SocketError("unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve the name (getaddrinfo, IPv4).
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (getaddrinfo(ep.host.c_str(), nullptr, &hints, &res) != 0 || !res)
      throw SocketError("cannot resolve host: " + ep.host);
    addr.sin_addr =
        reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    freeaddrinfo(res);
  }
  return addr;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& spec) {
  const auto invalid = [&]() -> std::invalid_argument {
    return std::invalid_argument(
        "invalid endpoint '" + spec +
        "' (expected unix:PATH, tcp:HOST:PORT, tcp:PORT or HOST:PORT)");
  };
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) throw invalid();
    return ep;
  }
  std::string rest = spec;
  if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
  const auto colon = rest.rfind(':');
  if (colon == std::string::npos) {
    // "tcp:PORT" -- loopback on the given port; a bare PORT is not one.
    if (rest == spec) throw invalid();
  } else {
    ep.host = rest.substr(0, colon);
    if (ep.host.empty()) throw invalid();
    rest = rest.substr(colon + 1);
  }
  try {
    ep.port = static_cast<std::uint16_t>(parse_count("port", rest, 65535));
  } catch (const ParamError&) {
    throw invalid();
  }
  return ep;
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
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

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void set_nonblocking(int fd, bool on) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd, F_SETFL, want) < 0) throw_errno("fcntl(F_SETFL)");
}

Socket listen_endpoint(const Endpoint& ep, int backlog) {
  const int family = ep.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  Socket s(::socket(family, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket");
  if (ep.kind == Endpoint::Kind::kUnix) {
    // A stale socket file from a previous daemon would fail the bind.
    ::unlink(ep.path.c_str());
    const sockaddr_un addr = unix_addr(ep.path);
    if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0)
      throw_errno("bind " + ep.to_string());
  } else {
    const int one = 1;
    ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = tcp_addr(ep);
    if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0)
      throw_errno("bind " + ep.to_string());
  }
  if (::listen(s.fd(), backlog) < 0) throw_errno("listen " + ep.to_string());
  return s;
}

namespace {

/// Completes a connect() that a signal interrupted. POSIX: after EINTR
/// the connection attempt continues asynchronously, so re-issuing
/// connect() yields EALREADY (or EISCONN) rather than success -- the
/// retry loop this replaces was wrong. Wait for writability, then read
/// the attempt's actual outcome from SO_ERROR.
int finish_interrupted_connect(int fd) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLOUT;
  int rc;
  do {
    rc = ::poll(&p, 1, -1);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return -1;
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return -1;
  if (err != 0) {
    errno = err;
    return -1;
  }
  return 0;
}

int connect_once(int fd, const sockaddr* addr, socklen_t len) {
  int rc = ::connect(fd, addr, len);
  if (rc < 0 && errno == EINTR) rc = finish_interrupted_connect(fd);
  return rc;
}

}  // namespace

Socket connect_endpoint(const Endpoint& ep) {
  const int family = ep.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  Socket s(::socket(family, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket");
  int rc;
  if (ep.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = unix_addr(ep.path);
    rc = connect_once(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr));
  } else {
    const sockaddr_in addr = tcp_addr(ep);
    rc = connect_once(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr));
  }
  if (rc < 0) throw_errno("connect " + ep.to_string());
  if (ep.kind == Endpoint::Kind::kTcp) {
    // Row messages are latency-sensitive single lines; don't batch them.
    const int one = 1;
    ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return s;
}

Socket accept_connection(const Socket& listener) {
  int fd;
  do {
    fd = ::accept(listener.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Socket();  // EAGAIN/transient: nothing pending
  return Socket(fd);
}

std::uint16_t local_port(const Socket& s) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    throw_errno("getsockname");
  return ntohs(addr.sin_port);
}

LineConn::LineConn(Socket s, std::size_t max_line)
    : sock_(std::move(s)), max_line_(max_line) {}

ssize_t LineConn::io_recv(char* buf, std::size_t cap) {
  for (;;) {
    std::size_t budget = cap;
    if (fault_) {
      if (fault_->drop_connection()) {
        // Model a severed link: from here every call on this connection
        // fails the way a real dead peer's would.
        sock_.close();
        errno = ECONNRESET;
        return -1;
      }
      // An injected interrupt takes the same retry edge a real one does.
      if (fault_->inject_eintr()) continue;
      budget = std::max<std::size_t>(1, fault_->clamp_read(cap));
    }
    const ssize_t n = ::recv(sock_.fd(), buf, budget, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

ssize_t LineConn::io_send(const char* buf, std::size_t len) {
  for (;;) {
    std::size_t budget = len;
    if (fault_) {
      if (fault_->drop_connection()) {
        // Sever mid-frame: push a torn prefix first (what a dying
        // host's kernel may already have flushed), so the peer gets to
        // exercise its partial-line handling too.
        if (len > 1) ::send(sock_.fd(), buf, len / 2, MSG_NOSIGNAL);
        sock_.close();
        errno = ECONNRESET;
        return -1;
      }
      if (fault_->inject_eintr()) continue;
      budget = std::max<std::size_t>(1, fault_->clamp_write(len));
    }
    const ssize_t n = ::send(sock_.fd(), buf, budget, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

bool LineConn::drain_lines(std::vector<std::string>& out) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = read_buf_.find('\n', start);
    if (nl == std::string::npos) break;
    // The limit applies to complete lines too, not just the unterminated
    // tail -- an oversized frame that happens to arrive whole is still a
    // protocol violation, not a free pass.
    if (nl - start > max_line_) {
      overflowed_ = true;
      return false;
    }
    out.emplace_back(read_buf_, start, nl - start);
    start = nl + 1;
  }
  if (start > 0) read_buf_.erase(0, start);
  if (read_buf_.size() > max_line_) {
    overflowed_ = true;
    return false;
  }
  return true;
}

IoStatus LineConn::read_lines(std::vector<std::string>& out) {
  if (overflowed_) return IoStatus::kLineTooLong;
  // Mixed use with recv_line_blocking: hand over anything it framed.
  for (; next_pending_ < pending_lines_.size(); ++next_pending_)
    out.push_back(std::move(pending_lines_[next_pending_]));
  pending_lines_.clear();
  next_pending_ = 0;
  char chunk[16384];
  for (;;) {
    const ssize_t n = io_recv(chunk, sizeof(chunk));
    if (n > 0) {
      read_buf_.append(chunk, static_cast<std::size_t>(n));
      if (!drain_lines(out)) return IoStatus::kLineTooLong;
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    return IoStatus::kError;
  }
}

void LineConn::queue_line(const std::string& line) {
  // Compact the consumed prefix occasionally so a long-lived streaming
  // connection doesn't grow its buffer without bound.
  if (write_pos_ > 0 && write_pos_ == write_buf_.size()) {
    write_buf_.clear();
    write_pos_ = 0;
  } else if (write_pos_ > (64u << 10)) {
    write_buf_.erase(0, write_pos_);
    write_pos_ = 0;
  }
  write_buf_ += line;
  write_buf_ += '\n';
}

IoStatus LineConn::flush() {
  while (write_pos_ < write_buf_.size()) {
    const ssize_t n = io_send(write_buf_.data() + write_pos_,
                              write_buf_.size() - write_pos_);
    if (n > 0) {
      write_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    return errno == EPIPE || errno == ECONNRESET ? IoStatus::kClosed
                                                 : IoStatus::kError;
  }
  return IoStatus::kOk;
}

bool LineConn::send_line_blocking(const std::string& line) {
  queue_line(line);
  const IoStatus st = flush();
  return st == IoStatus::kOk && !pending_write();
}

std::optional<std::string> LineConn::recv_line_blocking() {
  // Serve lines framed by an earlier read first.
  if (next_pending_ < pending_lines_.size())
    return std::move(pending_lines_[next_pending_++]);
  pending_lines_.clear();
  next_pending_ = 0;

  char chunk[16384];
  for (;;) {
    const ssize_t n = io_recv(chunk, sizeof(chunk));
    if (n > 0) {
      read_buf_.append(chunk, static_cast<std::size_t>(n));
      if (!drain_lines(pending_lines_)) return std::nullopt;
      if (pending_lines_.empty()) continue;
      return std::move(pending_lines_[next_pending_++]);
    }
    // EOF, EAGAIN (a blocking fd never sees it) and hard errors all end
    // the conversation for a blocking caller; EINTR was already retried.
    return std::nullopt;
  }
}

}  // namespace pns::net
