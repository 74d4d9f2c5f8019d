#include "loadgen/conn.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "server/client.h"

namespace perfbench {

void Frames::Add(const dd::Request& request) {
  wire += dd::EncodeRequest(request);
  ends.push_back(static_cast<uint32_t>(wire.size()));
}

std::string_view Frames::frame(size_t i) const {
  const size_t begin = i == 0 ? 0 : ends[i - 1];
  return std::string_view(wire).substr(begin, ends[i] - begin);
}

dd::Result<std::unique_ptr<Connection>> Connection::Open(uint16_t port) {
  auto fd = dd::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  std::unique_ptr<Connection> conn(new Connection(fd.value()));
  timeval timeout{60, 0};
  ::setsockopt(fd.value(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd.value(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  DD_RETURN_IF_ERROR(conn->conn_.SendHello());
  DD_RETURN_IF_ERROR(conn->conn_.ExpectHello());
  return conn;
}

Connection::Connection(int fd) : fd_(fd), conn_(fd) {}

Connection::~Connection() { ::close(fd_); }

dd::Result<dd::Response> Connection::ReadResponse() {
  auto body = conn_.ReadFrame();
  if (!body.ok()) return body.status();
  return dd::DecodeResponse(body.value());
}

dd::Result<dd::Response> Connection::Call(std::string_view frame) {
  DD_RETURN_IF_ERROR(conn_.WriteFrame(frame));
  return ReadResponse();
}

dd::Status Connection::Write(const Frames& frames, uint64_t backoff_seed,
                             WriteOutcome* outcome) {
  std::vector<uint32_t> pending(frames.size());
  for (size_t i = 0; i < pending.size(); ++i) pending[i] = static_cast<uint32_t>(i);
  dd::BusyBackoff backoff(1000, backoff_seed);
  std::string resend;
  for (int attempt = 0; !pending.empty(); ++attempt) {
    if (attempt == 0) {
      DD_RETURN_IF_ERROR(conn_.WriteFrame(frames.wire));
    } else {
      resend.clear();
      for (uint32_t i : pending) resend += frames.frame(i);
      DD_RETURN_IF_ERROR(conn_.WriteFrame(resend));
    }
    std::vector<uint32_t> busy;
    int64_t hint_us = 0;
    for (uint32_t i : pending) {
      auto response = ReadResponse();
      if (!response.ok()) return response.status();
      const dd::StatusCode code = response.value().code;
      if (code == dd::StatusCode::kOk) {
        ++outcome->acked;
      } else if (code == dd::StatusCode::kBusy) {
        ++outcome->busy;
        busy.push_back(i);
        hint_us = std::max(
            hint_us,
            static_cast<int64_t>(response.value().retry_after_ms) * 1000);
      } else {
        ++outcome->failed;
      }
    }
    if (!busy.empty() && attempt == kBusyRetries) {
      outcome->failed += busy.size();
      break;
    }
    pending.swap(busy);
    if (!pending.empty()) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(backoff.NextDelayUs(hint_us)));
    }
  }
  return dd::Status::OK();
}

}  // namespace perfbench
