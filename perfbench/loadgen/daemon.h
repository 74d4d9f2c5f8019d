// The sketchd daemon under test, run in its own process.
//
// Start() forks and execs the sketchd binary on a data directory with
// an ephemeral port, waits for the port file, and completes the
// protocol hello, so its duration is "daemon start and hello". The
// destructor SIGKILLs and reaps a daemon that is still running, and a
// watchdog does the same for every live daemon before the generator
// gives up on an overrun, so no run leaves a process behind.

#ifndef PERFBENCH_LOADGEN_DAEMON_H_
#define PERFBENCH_LOADGEN_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class Daemon {
 public:
  /// Starts `binary --data-dir DIR --port 0 --port-file DIR.port <flags>`
  /// with stdout/stderr appended to `log_path`, and returns once the
  /// daemon has accepted a connection and echoed the hello.
  static dd::Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::string& data_dir,
      const std::string& log_path, const std::vector<std::string>& flags);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon();

  uint16_t port() const { return port_; }

  /// The daemon's peak resident set (VmHWM) in MiB; NaN if unreadable.
  double PeakRssMb() const;

  /// CPU time all the daemon's threads have run so far, in seconds
  /// (from /proc/<pid>/task/*/schedstat; time the host steals from the
  /// VM is not in it).
  double CpuSeconds() const;

  /// SIGKILL (a crash: nothing is flushed or checkpointed) and reap.
  void Kill();

 private:
  Daemon(pid_t pid, uint16_t port) : pid_(pid), port_(port) {}

  pid_t pid_;
  uint16_t port_;
};

/// Kills and reaps every live daemon, then exits with status 1 if the
/// run is still going after `seconds`. Call once at startup.
void StartWatchdog(double seconds);

/// Apparent size in bytes of every regular file under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_DAEMON_H_
