#include "runtime/process.h"

#include <cerrno>
#include <cstdint>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/check.h"
#include "runtime/wire.h"

namespace nmc::runtime {

namespace {

/// Child-side outbound batch: whole frames only, so a kNack rewind never
/// has to retract a half-written frame (the receiver's framing stays in
/// sync; stale update frames are simply discarded by sequence number).
/// One batch fills one socket window, so a site pays one send per window.
constexpr size_t kSiteBatchBytes =
    kSocketWindowBytes / wire::kFrameBytes * wire::kFrameBytes;
static_assert(kSiteBatchBytes % wire::kFrameBytes == 0,
              "the child batch must hold whole frames");
static_assert(kSiteBatchBytes <= kSocketWindowBytes,
              "the child batch must fit in one socket window");
constexpr size_t kChildInBytes = 4096;

/// Everything below runs post-fork in the child. No heap allocation, no
/// stdio, no C++ containers: the parent may be multithreaded at fork time
/// (replacement sites are forked while reader threads run), so the child
/// must not touch a lock another parent thread could have held. Stack
/// buffers + raw syscalls only; every exit is _exit (no atexit handlers,
/// no sanitizer leak sweep over inherited allocations).
[[noreturn]] void ChildSiteMain(int fd, const SiteSpawnOptions& options) {
  (void)SetNonBlocking(fd);
  uint8_t inbuf[kChildInBytes];
  size_t inlen = 0;
  uint8_t outbuf[kSiteBatchBytes];
  size_t outlen = 0;
  size_t outpos = 0;
  const int64_t shard_n = static_cast<int64_t>(options.shard.size());
  int64_t cursor = options.resume_seq;
  int64_t echoes = 0;
  bool fin_sent = false;

  for (;;) {
    // 1. Refill the outbound batch once the previous one fully drained.
    if (outpos == outlen) {
      outpos = 0;
      outlen = 0;
      while (cursor < shard_n &&
             outlen + wire::kFrameBytes <= kSiteBatchBytes) {
        sim::Message m;
        m.type = static_cast<int>(FrameType::kUpdate);
        m.a = options.shard[static_cast<size_t>(cursor)];
        m.u = cursor;
        wire::EncodeFrame(m, outbuf + outlen);
        outlen += wire::kFrameBytes;
        ++cursor;
      }
      if (cursor >= shard_n && !fin_sent &&
          outlen + wire::kFrameBytes <= kSiteBatchBytes) {
        sim::Message m;
        m.type = static_cast<int>(FrameType::kFin);
        m.u = shard_n;
        m.v = echoes;
        wire::EncodeFrame(m, outbuf + outlen);
        outlen += wire::kFrameBytes;
        fin_sent = true;
      }
    }

    // 2. Flush as much as the socket accepts right now.
    bool send_blocked = false;
    if (outpos < outlen) {
      const ssize_t sent =
          send(fd, outbuf + outpos, outlen - outpos, MSG_NOSIGNAL);
      if (sent > 0) {
        outpos += static_cast<size_t>(sent);
      } else if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        send_blocked = true;
      } else if (sent < 0 && errno != EINTR) {
        _exit(2);  // coordinator gone mid-run: an orphan must die, not spin
      }
    }

    // 3. Drain control frames (kNack rewinds, echoes, the FinAck release).
    const ssize_t got = recv(fd, inbuf + inlen, kChildInBytes - inlen, 0);
    if (got == 0) _exit(2);
    if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      _exit(2);
    }
    if (got > 0) inlen += static_cast<size_t>(got);
    size_t ipos = 0;
    while (inlen - ipos >= wire::kFrameBytes) {
      const wire::Decoded decoded = wire::DecodeFrame(
          std::span<const uint8_t>(inbuf + ipos, inlen - ipos));
      if (decoded.status != wire::DecodeStatus::kOk) _exit(3);
      ipos += decoded.consumed;
      switch (static_cast<FrameType>(decoded.message.type)) {
        case FrameType::kNack:
          // Go-back-N rewind. The frames already batched keep flushing
          // (whole frames; the coordinator discards stale sequence
          // numbers), only the cursor moves back.
          if (decoded.message.u < cursor) {
            cursor = decoded.message.u;
            fin_sent = false;
          }
          break;
        case FrameType::kEcho:
          ++echoes;
          break;
        case FrameType::kFinAck:
          _exit(0);
        default:
          break;
      }
    }
    if (ipos > 0) {
      std::memmove(inbuf, inbuf + ipos, inlen - ipos);
      inlen -= ipos;
    }

    // 4. Nothing flushable and nothing new to say: block on the socket
    // instead of spinning against a busy coordinator.
    if (send_blocked || (outpos == outlen && fin_sent)) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = static_cast<short>(POLLIN | (send_blocked ? POLLOUT : 0));
      pfd.revents = 0;
      const int ready = poll(&pfd, 1, 50);
      if (ready > 0 && (pfd.revents & (POLLERR | POLLNVAL)) != 0) _exit(2);
      // POLLHUP alone is not conclusive: the read direction may still hold
      // the coordinator's FinAck; the recv()==0 above is the real EOF.
    }
  }
}

/// TCP child bootstrap: connect to the coordinator's loopback listener
/// (with retries — the parent listens before forking, but a slow accept
/// loop is normal) and introduce this site with a kHello frame before the
/// generic site loop takes over.
[[noreturn]] void ChildTcpMain(const SiteSpawnOptions& options) {
  int fd = -1;
  for (int attempt = 0; attempt < 200; ++attempt) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) _exit(4);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.tcp_port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0) {
      break;
    }
    close(fd);
    fd = -1;
    struct timespec backoff = {0, 10 * 1000 * 1000};  // 10ms
    nanosleep(&backoff, nullptr);
  }
  if (fd < 0) _exit(4);
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  BoundSocketBuffers(fd);

  sim::Message hello;
  hello.type = static_cast<int>(FrameType::kHello);
  hello.u = options.site_id;
  uint8_t frame[wire::kFrameBytes];
  wire::EncodeFrame(hello, frame);
  size_t off = 0;
  while (off < wire::kFrameBytes) {  // fd still blocking here
    const ssize_t sent =
        send(fd, frame + off, wire::kFrameBytes - off, MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) _exit(4);
    off += static_cast<size_t>(sent);
  }
  ChildSiteMain(fd, options);
}

}  // namespace

SiteProcess SpawnSiteProcess(const SiteSpawnOptions& options) {
  SiteProcess site;
  site.site_id = options.site_id;
  site.resume_seq = options.resume_seq;

  if (options.use_tcp) {
    const pid_t pid = fork();
    NMC_CHECK_GE(pid, 0);
    if (pid == 0) ChildTcpMain(options);
    site.pid = pid;
    site.fd = -1;  // arrives later via accept + kHello
    return site;
  }

  int fds[2];
  NMC_CHECK_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  BoundSocketBuffers(fds[0]);
  BoundSocketBuffers(fds[1]);
  const pid_t pid = fork();
  NMC_CHECK_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    ChildSiteMain(fds[1], options);
  }
  close(fds[1]);
  NMC_CHECK(SetNonBlocking(fds[0]));
  site.pid = pid;
  site.fd = fds[0];
  return site;
}

int ReapSiteProcess(SiteProcess* site, bool kill_first) {
  if (site->fd >= 0) {
    close(site->fd);
    site->fd = -1;
  }
  if (site->pid <= 0) return 0;
  if (kill_first) (void)kill(site->pid, SIGKILL);
  int status = 0;
  // Reap exactly this child; retry through signal interruptions. A child
  // that got FinAck is already exiting, a SIGKILLed one is gone — blocking
  // here is bounded either way (EOF-triggered exits close the race where a
  // child could outlive its socket).
  while (waitpid(site->pid, &status, 0) < 0 && errno == EINTR) {
  }
  site->pid = -1;
  return status;
}

void BoundSocketBuffers(int fd) {
  // Small kernel buffers bound the in-flight window to about 744 frames
  // per direction. Without this a fast child streams its entire shard into
  // the socket before the coordinator consumes a thing, which makes crash
  // injection meaningless (the SIGKILL lands after the data already left)
  // and resync distances unbounded. Best effort: the kernel clamps to its
  // floor, and doubles what we ask for bookkeeping.
  const int bytes = static_cast<int>(kSocketWindowBytes);
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

bool SendControl(int fd, const sim::Message& message, int max_attempts) {
  if (fd < 0) return false;
  uint8_t frame[wire::kFrameBytes];
  wire::EncodeFrame(message, frame);
  size_t off = 0;
  int attempts = 0;
  while (off < wire::kFrameBytes) {
    const ssize_t sent =
        send(fd, frame + off, wire::kFrameBytes - off, MSG_NOSIGNAL);
    if (sent > 0) {
      off += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (off == 0 && ++attempts >= max_attempts) return false;
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      (void)poll(&pfd, 1, 1);
      continue;
    }
    return false;
  }
  return true;
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int OpenTcpListener(uint16_t* port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  NMC_CHECK_GE(fd, 0);
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;  // ephemeral
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  NMC_CHECK_EQ(
      bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)), 0);
  NMC_CHECK_EQ(listen(fd, SOMAXCONN), 0);
  socklen_t len = sizeof(addr);
  NMC_CHECK_EQ(
      getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len), 0);
  *port = ntohs(addr.sin_port);
  NMC_CHECK(SetNonBlocking(fd));
  return fd;
}

}  // namespace nmc::runtime
