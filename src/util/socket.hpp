/// \file
/// \brief Local-socket plumbing for the experiment service: Unix-domain
/// listener/stream wrappers with poll-based timeouts, a self-pipe for
/// waking a poll loop from worker threads, and an async-signal-safe
/// SIGTERM/SIGINT hook that turns termination signals into self-pipe
/// bytes so the server can drain in-flight runs instead of dying mid-run
/// (docs/SERVING.md).
///
/// Everything here is deliberately thin: RAII around file descriptors,
/// errno folded into std::system_error, no protocol knowledge. The
/// newline-delimited JSON framing lives one layer up in src/serve.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

namespace mcsim {

/// Owning file descriptor (close-on-destroy, movable, non-copyable).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Close now (idempotent).
  void reset();
  /// Give up ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// One connected byte stream (a Unix-domain SOCK_STREAM endpoint).
/// Blocking reads/writes go through poll first so every operation carries a
/// timeout; the server additionally uses the fd directly in its own poll
/// loop with the stream in non-blocking mode.
class UnixStream {
 public:
  UnixStream() = default;
  explicit UnixStream(Fd fd) : fd_(std::move(fd)) {}

  /// Connect to the Unix-domain socket at `path`. Throws std::system_error
  /// (connection refused, missing socket, path too long).
  static UnixStream connect(const std::string& path);

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] bool valid() const { return fd_.valid(); }
  void close() { fd_.reset(); }

  /// Put the fd into non-blocking mode (the server's poll loop does this to
  /// every accepted connection).
  void set_nonblocking();

  /// Write all of `data`, polling for writability up to `timeout_ms` per
  /// chunk. Throws std::system_error on error or timeout; a closed peer
  /// surfaces as EPIPE (SIGPIPE is suppressed via MSG_NOSIGNAL).
  void write_all(const std::string& data, int timeout_ms);

  /// Read until a '\n' is seen (returned line excludes it), polling up to
  /// `timeout_ms` for each chunk. Returns false on clean EOF before any
  /// byte of a line. Throws std::system_error on error/timeout and
  /// std::runtime_error when a line exceeds `max_line_bytes` — the framing
  /// guard at the trust boundary.
  bool read_line(std::string& line, int timeout_ms, std::size_t max_line_bytes);

 private:
  Fd fd_;
  std::string buffer_;  ///< bytes read past the last returned line
};

/// A bound + listening Unix-domain socket. The socket file is unlinked on
/// destruction (best effort) so a cleanly shut down server leaves no stale
/// rendezvous behind.
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;
  UnixListener(UnixListener&& other) noexcept
      : fd_(std::move(other.fd_)), path_(std::move(other.path_)) {
    other.path_.clear();
  }
  UnixListener& operator=(UnixListener&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::move(other.fd_);
      path_ = std::move(other.path_);
      other.path_.clear();
    }
    return *this;
  }

  /// Stop listening and remove the socket file now (what destruction would
  /// do); idempotent. The server calls this before serve() returns so a 0
  /// exit code means the rendezvous path is already gone.
  void close();

  /// Bind and listen on `path`. An existing *socket* file at the path is
  /// replaced (the crashed-predecessor case); a non-socket file is an
  /// error. Throws std::system_error / std::invalid_argument.
  static UnixListener bind(const std::string& path, int backlog = 64);

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Accept one pending connection (the caller polls for readability
  /// first). Returns an invalid stream when no connection is pending
  /// (EAGAIN); throws std::system_error on real errors.
  UnixStream accept();

 private:
  Fd fd_;
  std::string path_;
};

/// A pipe whose read end a poll loop watches and whose write end worker
/// threads (and signal handlers — write(2) is async-signal-safe) poke to
/// wake it. Writes never block (O_NONBLOCK; a full pipe is fine, the wakeup
/// is level-triggered by drain()).
class SelfPipe {
 public:
  SelfPipe();

  [[nodiscard]] int read_fd() const { return read_.get(); }
  /// The write end — only for install_shutdown_signals, which must stash a
  /// raw fd a signal handler can write(2) to. Everyone else uses notify().
  [[nodiscard]] int write_fd() const { return write_.get(); }
  /// Write one byte to the pipe (thread- and signal-safe, never blocks).
  void notify() const;
  /// Drain every pending byte (called by the poll loop after wakeup).
  void drain() const;

 private:
  Fd read_;
  Fd write_;
};

/// Route SIGTERM and SIGINT to `pipe` (one notify per signal) so a poll
/// loop observes them as ordinary readiness instead of being killed.
/// Restores default disposition when called with nullptr. Only one pipe can
/// be installed at a time (the handler reads one global fd — the
/// async-signal-safety constraint).
void install_shutdown_signals(const SelfPipe* pipe);

/// True when a SIGTERM/SIGINT has been delivered since the last call
/// (consume semantics). The self-pipe wakes the poll loop; this tells it
/// *why* — the same pipe also carries run-completion wakeups.
bool consume_shutdown_signal();

}  // namespace mcsim
