#include "loadgen/daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "loadgen/stats.h"
#include "server/net.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

// Live daemon pids, readable from the SIGALRM handler (async-signal-safe:
// fixed slots, no allocation, no locks).
constexpr int kMaxDaemons = 8;
volatile pid_t g_live[kMaxDaemons] = {};

void Register(pid_t pid) {
  for (auto& slot : g_live) {
    if (slot == 0) {
      slot = pid;
      return;
    }
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_live) {
    if (slot == pid) slot = 0;
  }
}

void OnWatchdog(int) {
  for (auto& slot : g_live) {
    const pid_t pid = slot;
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  static const char kMsg[] = "sketchd_loadgen: run overran its time limit\n";
  [[maybe_unused]] const ssize_t n = ::write(2, kMsg, sizeof(kMsg) - 1);
  ::_exit(1);
}

/// Reads the port file once it holds a complete line (sketchd writes it
/// atomically, so a present file is complete).
bool ReadPort(const std::string& path, uint16_t* port) {
  std::ifstream in(path);
  if (!in) return false;
  unsigned long value = 0;
  if (!(in >> value) || value == 0 || value > 65535) return false;
  *port = static_cast<uint16_t>(value);
  return true;
}

/// Hello + one STATS round trip: the daemon is serving.
dd::Status Probe(uint16_t port) {
  auto fd = dd::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  dd::FramedConn conn(fd.value());
  dd::Status status = conn.SendHello();
  if (status.ok()) status = conn.ExpectHello();
  if (status.ok()) {
    dd::Request request;
    request.op = dd::Request::Op::kStats;
    status = conn.WriteFrame(dd::EncodeRequest(request));
  }
  if (status.ok()) {
    auto body = conn.ReadFrame();
    if (!body.ok()) {
      status = body.status();
    } else {
      auto response = dd::DecodeResponse(body.value());
      status = response.ok() ? dd::ResponseStatus(response.value())
                             : response.status();
    }
  }
  ::close(fd.value());
  return status;
}

std::string LogTail(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  if (text.size() > 2000) text = text.substr(text.size() - 2000);
  return text;
}

}  // namespace

dd::Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::string& data_dir,
    const std::string& log_path, const std::vector<std::string>& flags) {
  const std::string port_file = data_dir + ".port";
  std::filesystem::remove(port_file);

  std::vector<std::string> args = {binary,      "--data-dir", data_dir,
                                   "--port",    "0",          "--port-file",
                                   port_file};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return dd::Status::Internal("cannot open " + log_path);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return dd::Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Child: die with the generator, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  Register(pid);
  std::unique_ptr<Daemon> daemon(new Daemon(pid, 0));

  const auto deadline = Clock::now() + std::chrono::seconds(60);
  uint16_t port = 0;
  while (!ReadPort(port_file, &port)) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      Unregister(pid);
      daemon->pid_ = -1;
      return dd::Status::Internal("sketchd exited during start: " +
                                 LogTail(log_path));
    }
    if (Clock::now() > deadline) {
      return dd::Status::Internal("sketchd did not publish its port: " +
                                 LogTail(log_path));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  daemon->port_ = port;
  if (dd::Status s = Probe(port); !s.ok()) return s;
  return daemon;
}

Daemon::~Daemon() { Kill(); }

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  Unregister(pid_);
  pid_ = -1;
}

double Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double Daemon::CpuSeconds() const {
  double ns = 0;
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    double run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  return ns / 1e9;
}

void StartWatchdog(double seconds) {
  std::signal(SIGALRM, OnWatchdog);
  ::alarm(static_cast<unsigned>(std::ceil(seconds)));
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
