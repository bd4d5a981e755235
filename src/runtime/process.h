#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include <sys/types.h>

#include "sim/message.h"

namespace nmc::runtime {

/// The sockets transport's one window size. It sets the kernel buffer
/// request on every data socket (BoundSocketBuffers), the child's outbound
/// batch (the whole frames that fit in one window: 372 frames, one send
/// per window) and, doubled, the coordinator's per-recv size (Linux
/// doubles an SO_RCVBUF request, so one socket can hold up to 2× this).
inline constexpr size_t kSocketWindowBytes = 16 * 1024;

/// Transport-level frame vocabulary of the sockets backend, carried in
/// sim::Message::type. Distinct from any protocol's own message enum: these
/// frames move *stream updates and link control* between processes; the
/// tracking protocol itself runs confined inside the coordinator, exactly
/// as on the threads backend.
///
/// Field usage per type (unused fields are zero):
///   kHello   u = site_id                      (TCP only: maps a connection)
///   kUpdate  a = value, u = per-site sequence number (0-based)
///   kFin     u = shard length, v = echoes the child had received
///   kFinAck  (none) — coordinator release; the child exits on receipt
///   kNack    u = first sequence number to resend (go-back-N rewind)
///   kEcho    a = estimate, u = generation     (advisory, may be dropped)
enum class FrameType : int {
  kHello = 1,
  kUpdate = 2,
  kFin = 3,
  kFinAck = 4,
  kNack = 5,
  kEcho = 6,
};

/// One forked site incarnation as the coordinator sees it.
struct SiteProcess {
  pid_t pid = -1;
  /// Parent's end of the stream socket, nonblocking. -1 after teardown.
  int fd = -1;
  int site_id = 0;
  /// First sequence number this incarnation sends (respawns resume where
  /// the coordinator's consumption cursor stood).
  int64_t resume_seq = 0;
};

struct SiteSpawnOptions {
  int site_id = 0;
  /// The site's full shard; the child streams shard[resume_seq..) tagging
  /// each update with its absolute sequence number.
  std::span<const double> shard;
  int64_t resume_seq = 0;
  /// Connect over TCP to 127.0.0.1:tcp_port and introduce itself with a
  /// kHello frame, instead of inheriting one end of a Unix socketpair.
  bool use_tcp = false;
  uint16_t tcp_port = 0;
};

/// Forks one site child. The child never returns: it streams its shard as
/// kUpdate frames, honors kNack rewinds (go-back-N), announces completion
/// with kFin, and _exit()s once the coordinator acknowledges with kFinAck
/// (or the socket reports EOF/error — an orphaned child must die, not
/// linger). The post-fork child path allocates nothing on the heap: the
/// parent may already be running reader threads when a replacement site is
/// forked, and a child touching malloc could inherit a locked allocator.
/// Returns the parent-side endpoint (nonblocking fd). Aborts via NMC_CHECK
/// on syscall failure — a transport that cannot even fork has no graceful
/// degradation story.
SiteProcess SpawnSiteProcess(const SiteSpawnOptions& options);

/// Parent-side teardown of one incarnation: closes the fd (if still open),
/// SIGKILLs the child when `kill_first` (idempotent — already-dead children
/// are fine), and reaps the pid with waitpid so no zombie outlives the
/// run. Returns the child's raw wait status (0 when there was nothing to
/// reap).
int ReapSiteProcess(SiteProcess* site, bool kill_first);

/// O_NONBLOCK on an fd; returns false on fcntl failure.
bool SetNonBlocking(int fd);

/// Requests kSocketWindowBytes for SO_SNDBUF and SO_RCVBUF. Linux doubles
/// the request, so about 2 × 16 KiB (744 frames) sit in one socket's
/// kernel buffer per direction. Applied to every data socket (both
/// socketpair ends, TCP connections): a fast child must not outrun the
/// coordinator by a whole shard, or crash injection degenerates (the kill
/// lands after the data already left the site) and resync distances stop
/// meaning anything.
void BoundSocketBuffers(int fd);

/// Sends one frame on a nonblocking fd. Each EAGAIN before the frame's
/// first byte is out uses one of `max_attempts` tries; between tries the
/// call waits up to 1 ms for POLLOUT, and after the last try it gives up
/// at once with nothing written. Once any byte is out the call finishes
/// the frame: a torn frame would desynchronize the peer's decoder. Returns
/// false when the tries ran out or the peer is gone (EPIPE/reset).
bool SendControl(int fd, const sim::Message& message, int max_attempts);

/// Creates a localhost TCP listener on an ephemeral port (nonblocking,
/// SO_REUSEADDR). Returns the listening fd and writes the bound port.
int OpenTcpListener(uint16_t* port);

}  // namespace nmc::runtime
