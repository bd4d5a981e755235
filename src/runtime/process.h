#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include <sys/types.h>

#include "sim/message.h"

namespace nmc::runtime {

/// The sockets transport's unit of transfer. It sets the child's outbound
/// batch (the whole frames that fit in one window: 372 frames of up to 63
/// updates, one send per window) and, doubled, the coordinator's per-recv
/// size. It stays small so that a child's first send goes out after 372
/// frames are packed, not after a whole socket's worth.
inline constexpr size_t kSocketWindowBytes = 16 * 1024;

/// The kernel buffer request on every data socket (BoundSocketBuffers):
/// 16 windows. A second constant because depth and batch size pull apart.
/// An AF_UNIX sender blocked on a full socket wakes for POLLOUT only once
/// the bytes in flight fall to a quarter of its SO_SNDBUF, so a shallow
/// socket (one window) runs dry whenever the child is descheduled across
/// that wake, and the coordinator's turn then waits on it. A deep socket
/// keeps frames queued across such a gap. Growing the window instead
/// delays every child's first send by a whole batch.
inline constexpr size_t kSocketBufferBytes = 16 * kSocketWindowBytes;

/// Transport-level frame vocabulary of the sockets backend, carried in
/// sim::Message::type. Distinct from any protocol's own message enum: these
/// frames move *stream updates and link control* between processes; the
/// tracking protocol itself runs confined inside the coordinator, exactly
/// as on the threads backend.
///
/// Field usage per type (unused fields are zero):
///   kUpdate  a run of 1..63 consecutive updates (wire::PackRun):
///            u = sequence number (0-based) of the first,
///            a, b = the run's at most two distinct values,
///            v = selector bits (update i is b when bit i is set, else a)
///                under a stop bit; the count is bit_width(v) − 1
///   kFin     u = the incarnation's stop point (the shard length, or the
///            kill point its plan stops it at)
///   kFinAck  (none) — coordinator release; the child exits on receipt
///   kNack    u = first sequence number to resend (go-back-N rewind; it
///            may fall inside a frame already sent)
///
/// The numbers are wire format (the transport goldens pin them); 1 and 6
/// are unused. 6 was the coordinator->site echo, so reusing it needs a
/// new wire::kVersion: a version-2 peer still reads 6 as an echo.
enum class FrameType : int {
  kUpdate = 2,
  kFin = 3,
  kFinAck = 4,
  kNack = 5,
};

/// One forked site incarnation as the coordinator sees it.
struct SiteProcess {
  pid_t pid = -1;
  /// Parent's end of the stream socket, nonblocking. -1 after teardown.
  int fd = -1;
};

struct SiteSpawnOptions {
  /// The site's full shard; the child streams shard[resume_seq, stop_seq)
  /// tagging each run with its absolute first sequence number.
  std::span<const double> shard;
  int64_t resume_seq = 0;
  /// The incarnation's stop point: its next kill point, or the shard's
  /// end. The child frames nothing at or past it, announces it with kFin
  /// and then only answers rewinds until it is released or killed.
  int64_t stop_seq = 0;
};

/// Forks one site child connected to the coordinator by a Unix socketpair.
/// The child never returns: it streams its shard up to its stop point as
/// packed kUpdate frames, honors kNack rewinds (go-back-N), announces the
/// stop point with kFin, and _exit()s
/// once the coordinator acknowledges with kFinAck (or the socket reports
/// EOF/error — an orphaned child must die, not linger). The post-fork
/// child path allocates nothing on the heap: the parent may already be
/// running reader threads when a replacement site is forked, and a child
/// touching malloc could inherit a locked allocator. Returns the
/// parent-side endpoint (nonblocking fd), ready to poll. Aborts via
/// NMC_CHECK on syscall failure — a transport that cannot even fork has no
/// graceful degradation story.
SiteProcess SpawnSiteProcess(const SiteSpawnOptions& options);

/// Parent-side teardown of one incarnation: closes the fd (if still open),
/// SIGKILLs the child when `kill_first` (idempotent — already-dead children
/// are fine), and reaps the pid with waitpid so no zombie outlives the
/// run. Returns the child's raw wait status (0 when there was nothing to
/// reap).
int ReapSiteProcess(SiteProcess* site, bool kill_first);

/// O_NONBLOCK on an fd; returns false on fcntl failure.
bool SetNonBlocking(int fd);

/// Requests kSocketBufferBytes for SO_SNDBUF and SO_RCVBUF. Linux doubles
/// the request (after clamping it to net.core.wmem_max / rmem_max), so up
/// to 2 × 256 KiB (11,915 frames) sit in one socket's kernel buffer per
/// direction. Applied to both socketpair ends, so a site runs at most that
/// far ahead of the coordinator: a go-back-N rewind leaves at most that
/// much stale data in flight.
void BoundSocketBuffers(int fd);

/// Tries a control frame gets on a full socket before SendControl gives
/// up on it.
inline constexpr int kControlSendAttempts = 200;

/// Sends one control frame on a nonblocking fd. Each EAGAIN before the
/// frame's first byte is out uses one of kControlSendAttempts tries;
/// between tries the call waits up to 1 ms for POLLOUT, and after the last
/// try it gives up with nothing written. Once any byte is out the call
/// finishes the frame: a torn frame would desynchronize the peer's
/// decoder. Returns false when the tries ran out or the peer is gone
/// (EPIPE/reset).
bool SendControl(int fd, const sim::Message& message);

}  // namespace nmc::runtime
