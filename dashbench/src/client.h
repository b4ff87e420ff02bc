// The benchmark's loopback HTTP/1.1 client.
//
// One client holds at most one connection and reuses it for the next
// request unless the response says "Connection: close". Responses are
// framed by Content-Length, never by the peer closing, so the client
// needs no change once the server keeps connections alive. Until then
// every response carries "Connection: close" and the client opens one
// connection per request — the same traffic as webapp::FetchOverLoopback.
// The client counts the connections it opens; that count is the base of
// the webapp.connections_per_request metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "webapp/http.h"

namespace dashbench {

using Clock = std::chrono::steady_clock;

// The instants of one exchange as the client saw them.
struct Exchange {
  Clock::time_point start;    // Get() entered
  Clock::time_point connect;  // connect(2) began; == start on a reused connection
  Clock::time_point done;     // response framed and parsed, or failure seen
  bool opened = false;        // a new connection was opened for this request
};

class LoopbackClient {
 public:
  explicit LoopbackClient(int port);
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  // GETs `target` ("/search?q=..."). nullopt on a connect or send error, a
  // timeout, a malformed response, or a peer that closed before the whole
  // body arrived. A request on a reused connection that the server closed
  // while it was idle is retried once on a new connection.
  std::optional<dash::webapp::HttpResponse> Get(std::string_view target,
                                                Exchange* exchange = nullptr);

  std::uint64_t connections_opened() const { return connections_opened_; }

 private:
  bool Connect();
  void Close();
  // Reads one response off the open connection; `*received` tells whether
  // any byte of it arrived.
  std::optional<dash::webapp::HttpResponse> ReadResponse(bool* received);

  const int port_;
  int fd_ = -1;
  std::string buffer_;  // bytes read beyond the previous response
  std::uint64_t connections_opened_ = 0;
};

// True when `response` asks the client to close its connection.
bool WantsClose(const dash::webapp::HttpResponse& response);

}  // namespace dashbench
