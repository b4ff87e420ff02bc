#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include "util/string_util.h"

namespace dashbench {

namespace {

// Longest response head the client accepts before giving up on a peer.
constexpr std::size_t kMaxHeadBytes = 1 << 16;
// A send or receive that stalls this long fails the request.
constexpr int kTimeoutMs = 10000;

bool SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool WantsClose(const dash::webapp::HttpResponse& response) {
  for (const auto& [name, value] : response.headers) {
    if (!dash::util::EqualsIgnoreCase(name, "Connection")) continue;
    std::string lower = value;
    for (char& c : lower) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    return lower.find("close") != std::string::npos;
  }
  return false;
}

LoopbackClient::LoopbackClient(int port) : port_(port) {}

LoopbackClient::~LoopbackClient() { Close(); }

bool LoopbackClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  ++connections_opened_;
  timeval tv{};
  tv.tv_sec = kTimeoutMs / 1000;
  tv.tv_usec = (kTimeoutMs % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  // Requests go out in one send; without Nagle a reused connection never
  // waits for a delayed ACK either.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Close();
    return false;
  }
  return true;
}

void LoopbackClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

std::optional<dash::webapp::HttpResponse> LoopbackClient::ReadResponse(
    bool* received) {
  *received = !buffer_.empty();
  char chunk[16384];
  std::size_t head_end = std::string::npos;
  std::size_t need = 0;
  while (true) {
    if (head_end == std::string::npos) {
      head_end = dash::webapp::HeaderBlockEnd(buffer_);
      if (head_end != std::string::npos) {
        need = head_end + dash::webapp::ContentLengthOf(
                              std::string_view(buffer_).substr(0, head_end));
      } else if (buffer_.size() > kMaxHeadBytes) {
        return std::nullopt;
      }
    }
    if (head_end != std::string::npos && buffer_.size() >= need) break;
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;  // error, timeout, or closed mid-response
    *received = true;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  std::optional<dash::webapp::HttpResponse> response =
      dash::webapp::ParseResponse(std::string_view(buffer_).substr(0, need));
  buffer_.erase(0, need);
  return response;
}

std::optional<dash::webapp::HttpResponse> LoopbackClient::Get(
    std::string_view target, Exchange* exchange) {
  Exchange local;
  Exchange& ex = exchange != nullptr ? *exchange : local;
  ex.start = Clock::now();
  ex.opened = false;
  const std::string request =
      dash::webapp::SerializeRequest(dash::webapp::ParseUrl(target));
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    ex.connect = Clock::now();
    if (!reused) {
      if (!Connect()) break;
      ex.opened = true;
    }
    bool received = false;
    std::optional<dash::webapp::HttpResponse> response;
    if (SendAll(fd_, request)) response = ReadResponse(&received);
    if (!response.has_value()) {
      Close();
      // Only an idle connection the server dropped is worth a second try;
      // a fresh connection that failed, or any partial answer, is a failure.
      if (reused && !received) continue;
      break;
    }
    if (WantsClose(*response)) Close();
    ex.done = Clock::now();
    return response;
  }
  ex.done = Clock::now();
  return std::nullopt;
}

}  // namespace dashbench
