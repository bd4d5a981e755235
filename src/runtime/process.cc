#include "runtime/process.h"

#include <cerrno>
#include <cstdint>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
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
  const int64_t stop = options.stop_seq;
  int64_t cursor = options.resume_seq;
  bool fin_sent = false;

  for (;;) {
    // 1. Refill the outbound batch once the previous one fully drained:
    // runs packed from the cursor up to the stop point, then the kFin that
    // announces the stop.
    if (outpos == outlen) {
      outpos = 0;
      outlen = 0;
      while (cursor < stop && outlen + wire::kFrameBytes <= kSiteBatchBytes) {
        sim::Message m;
        m.type = static_cast<int>(FrameType::kUpdate);
        cursor += wire::PackRun(
            options.shard.subspan(static_cast<size_t>(cursor),
                                  static_cast<size_t>(stop - cursor)),
            cursor, &m);
        wire::EncodeFrame(m, outbuf + outlen);
        outlen += wire::kFrameBytes;
      }
      if (cursor >= stop && !fin_sent &&
          outlen + wire::kFrameBytes <= kSiteBatchBytes) {
        sim::Message m;
        m.type = static_cast<int>(FrameType::kFin);
        m.u = stop;
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

    // 3. Drain control frames (kNack rewinds, the FinAck release).
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
          // Go-back-N rewind, possibly into the middle of a frame already
          // sent: the next frame packed starts exactly at u. The frames
          // already batched keep flushing (whole frames; the coordinator
          // discards stale sequence numbers), only the cursor moves back.
          if (decoded.message.u < cursor) {
            cursor = decoded.message.u;
            fin_sent = false;
          }
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

}  // namespace

SiteProcess SpawnSiteProcess(const SiteSpawnOptions& options) {
  NMC_CHECK_LE(0, options.resume_seq);
  NMC_CHECK_LE(options.resume_seq, options.stop_seq);
  NMC_CHECK_LE(options.stop_seq, static_cast<int64_t>(options.shard.size()));
  SiteProcess site;

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
  // Bounded kernel buffers bound the in-flight data per direction (see
  // process.h). Best effort: the kernel clamps to its floor and ceiling,
  // and doubles what we ask for bookkeeping.
  const int bytes = static_cast<int>(kSocketBufferBytes);
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

bool SendControl(int fd, const sim::Message& message) {
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
      if (off == 0 && ++attempts >= kControlSendAttempts) return false;
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

}  // namespace nmc::runtime
