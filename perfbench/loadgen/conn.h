// The generator's client side of the sketchd protocol. Requests are
// encoded before timing starts (Frames), so the timed region holds only
// socket I/O, ack decoding and the daemon's work.

#ifndef PERFBENCH_LOADGEN_CONN_H_
#define PERFBENCH_LOADGEN_CONN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "server/net.h"
#include "server/protocol.h"
#include "util/status.h"

namespace perfbench {

/// Pre-encoded request frames, back to back, with each frame's end.
struct Frames {
  std::string wire;
  std::vector<uint32_t> ends;

  void Add(const dd::Request& request);
  size_t size() const { return ends.size(); }
  std::string_view frame(size_t i) const;
};

/// What one pipelined write call achieved.
struct WriteOutcome {
  uint64_t acked = 0;
  uint64_t failed = 0;  ///< not OK after the BUSY retries
  uint64_t busy = 0;    ///< BUSY refusals seen (each one retried)
};

/// One blocking connection (hello done). Not thread-safe.
class Connection {
 public:
  /// Connects to 127.0.0.1:port and completes the hello. Reads and
  /// writes time out after a minute, so a wedged daemon fails the run.
  static dd::Result<std::unique_ptr<Connection>> Open(uint16_t port);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  /// Writes every INGEST/MERGE frame before reading the first ack (the
  /// pipelining a flushing agent does), then re-sends the frames the
  /// daemon refused with BUSY after a jittered backoff, up to
  /// kBusyRetries times. Frames still refused, or refused with any other
  /// error, count as failed. A transport or framing error is returned.
  dd::Status Write(const Frames& frames, uint64_t backoff_seed,
                   WriteOutcome* outcome);

  /// One request/response round trip.
  dd::Result<dd::Response> Call(std::string_view frame);

  static constexpr int kBusyRetries = 8;

 private:
  explicit Connection(int fd);

  dd::Result<dd::Response> ReadResponse();

  int fd_;
  dd::FramedConn conn_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_CONN_H_
