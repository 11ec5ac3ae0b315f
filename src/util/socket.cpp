#include "util/socket.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "util/assert.hpp"

namespace mcsim {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Fill a sockaddr_un for `path`, rejecting paths that do not fit sun_path
/// (the classic 108-byte limit) with a clear message instead of silent
/// truncation.
sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  MCSIM_REQUIRE(path.size() < sizeof(address.sun_path),
                "socket path too long for a Unix-domain socket (" +
                    std::to_string(path.size()) + " bytes, limit " +
                    std::to_string(sizeof(address.sun_path) - 1) + "): " + path);
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

/// Poll one fd for `events`; true when ready, false on timeout. EINTR
/// retries with the remaining time (coarsely: full timeout again — the
/// callers' timeouts are generous guards, not precise deadlines).
bool poll_one(int fd, short events, int timeout_ms) {
  pollfd entry{};
  entry.fd = fd;
  entry.events = events;
  for (;;) {
    const int ready = ::poll(&entry, 1, timeout_ms);
    if (ready > 0) return true;
    if (ready == 0) return false;
    if (errno != EINTR) throw_errno("poll");
  }
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixStream UnixStream::connect(const std::string& path) {
  const sockaddr_un address = make_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    throw_errno("connect to " + path);
  }
  return UnixStream(std::move(fd));
}

void UnixStream::set_nonblocking() {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_.get(), F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl O_NONBLOCK");
  }
}

void UnixStream::write_all(const std::string& data, int timeout_ms) {
  std::size_t written = 0;
  while (written < data.size()) {
    if (!poll_one(fd_.get(), POLLOUT, timeout_ms)) {
      throw std::system_error(ETIMEDOUT, std::generic_category(), "socket write");
    }
    const ssize_t sent = ::send(fd_.get(), data.data() + written,
                                data.size() - written, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw_errno("socket write");
    }
    written += static_cast<std::size_t>(sent);
  }
}

bool UnixStream::read_line(std::string& line, int timeout_ms,
                           std::size_t max_line_bytes) {
  for (;;) {
    if (const std::size_t pos = buffer_.find('\n'); pos != std::string::npos) {
      line.assign(buffer_, 0, pos);
      buffer_.erase(0, pos + 1);
      return true;
    }
    if (buffer_.size() > max_line_bytes) {
      throw std::runtime_error("mcsim: protocol line exceeds " +
                               std::to_string(max_line_bytes) + " bytes");
    }
    if (!poll_one(fd_.get(), POLLIN, timeout_ms)) {
      throw std::system_error(ETIMEDOUT, std::generic_category(), "socket read");
    }
    char chunk[4096];
    const ssize_t got = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw_errno("socket read");
    }
    if (got == 0) {
      // Clean EOF: a half-read line at EOF is a framing error upstream;
      // report "no more lines" either way and let the caller decide.
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

UnixListener::~UnixListener() { close(); }

void UnixListener::close() {
  if (fd_.valid() && !path_.empty()) ::unlink(path_.c_str());
  fd_.reset();
  path_.clear();
}

UnixListener UnixListener::bind(const std::string& path, int backlog) {
  const sockaddr_un address = make_address(path);
  // Replace a stale socket file (crashed predecessor); refuse to clobber
  // anything that is not a socket.
  struct stat info{};
  if (::lstat(path.c_str(), &info) == 0) {
    MCSIM_REQUIRE(S_ISSOCK(info.st_mode),
                  "refusing to replace non-socket file at " + path);
    ::unlink(path.c_str());
  }
  // The listener must be non-blocking itself: accept4's SOCK_NONBLOCK only
  // shapes the *accepted* socket, and the server's accept-until-empty loop
  // would otherwise block inside accept4 once the backlog drains.
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
  if (!fd.valid()) throw_errno("socket");
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    throw_errno("bind " + path);
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen on " + path);
  UnixListener listener;
  listener.fd_ = std::move(fd);
  listener.path_ = path;
  return listener;
}

UnixStream UnixListener::accept() {
  const int conn =
      ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
  if (conn < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return UnixStream();
    }
    throw_errno("accept");
  }
  return UnixStream(Fd(conn));
}

SelfPipe::SelfPipe() {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) != 0) throw_errno("pipe2");
  read_ = Fd(fds[0]);
  write_ = Fd(fds[1]);
}

void SelfPipe::notify() const {
  const char byte = 1;
  // A full pipe (EAGAIN) already guarantees a pending wakeup; every other
  // failure is ignored too — notify() must stay async-signal-safe, and the
  // poll loop's level-triggered drain makes lost extra bytes harmless.
  [[maybe_unused]] const ssize_t rc = ::write(write_.get(), &byte, 1);
}

void SelfPipe::drain() const {
  char sink[64];
  while (::read(read_.get(), sink, sizeof(sink)) > 0) {
  }
}

namespace {

// The one write-end fd the signal handler pokes. Plain atomic int: signal
// handlers may only touch lock-free atomics and call async-signal-safe
// functions (write qualifies).
std::atomic<int> g_shutdown_pipe_fd{-1};
std::atomic<bool> g_shutdown_seen{false};

void shutdown_signal_handler(int /*signo*/) {
  // Flag first, then wake: the poll loop drains the pipe and *then* asks
  // consume_shutdown_signal(), so this order can never lose a signal.
  g_shutdown_seen.store(true, std::memory_order_relaxed);
  const int fd = g_shutdown_pipe_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

}  // namespace

bool consume_shutdown_signal() {
  return g_shutdown_seen.exchange(false, std::memory_order_relaxed);
}

void install_shutdown_signals(const SelfPipe* pipe) {
  struct sigaction action{};
  if (pipe != nullptr) {
    // Expose the fd before installing the handler so a signal arriving
    // between the two statements still finds a valid target.
    g_shutdown_pipe_fd.store(pipe->write_fd(), std::memory_order_relaxed);
    action.sa_handler = shutdown_signal_handler;
  } else {
    g_shutdown_pipe_fd.store(-1, std::memory_order_relaxed);
    g_shutdown_seen.store(false, std::memory_order_relaxed);
    action.sa_handler = SIG_DFL;
  }
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (::sigaction(SIGTERM, &action, nullptr) != 0 ||
      ::sigaction(SIGINT, &action, nullptr) != 0) {
    throw_errno("sigaction");
  }
}

}  // namespace mcsim
