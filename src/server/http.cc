#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/params.h"
#include "common/string_utils.h"
#include "common/timer.h"

namespace evocat {
namespace server {

namespace {

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

const std::string* FindHeaderIn(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& name) {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

/// Parses "Name: value" lines between `begin` and the blank line; returns
/// the error on malformed lines.
Status ParseHeaderLines(const std::string& raw, size_t begin, size_t end,
                        std::vector<std::pair<std::string, std::string>>* out) {
  size_t pos = begin;
  while (pos < end) {
    size_t eol = raw.find("\r\n", pos);
    if (eol == std::string::npos || eol > end) eol = end;
    std::string line = raw.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::Invalid("malformed header line '", line, "'");
    }
    out->emplace_back(Trim(line.substr(0, colon)),
                      Trim(line.substr(colon + 1)));
  }
  return Status::OK();
}

Result<int64_t> ContentLengthOf(
    const std::vector<std::pair<std::string, std::string>>& headers) {
  const std::string* value = FindHeaderIn(headers, "Content-Length");
  if (value == nullptr) return int64_t{0};
  int64_t length = 0;
  EVOCAT_RETURN_NOT_OK(ParseInt64(*value, &length));
  if (length < 0) return Status::Invalid("negative Content-Length");
  return length;
}

Status SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that disconnected mid-response must surface as
    // EPIPE here, not as a process-killing SIGPIPE.
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("send failed: ", std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

enum class RecvOutcome { kData, kEof, kTimeout, kError };

/// One bounded recv: waits up to `timeout_ms` for readability (negative or
/// zero budget counts as already expired), then reads what is there.
RecvOutcome RecvWithTimeout(int fd, char* buffer, size_t capacity,
                            int timeout_ms, ssize_t* n_out) {
  while (true) {
    if (timeout_ms <= 0) return RecvOutcome::kTimeout;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return RecvOutcome::kError;
    }
    if (ready == 0) return RecvOutcome::kTimeout;
    ssize_t n = ::recv(fd, buffer, capacity, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return RecvOutcome::kError;
    }
    if (n == 0) return RecvOutcome::kEof;
    *n_out = n;
    return RecvOutcome::kData;
  }
}

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  return FindHeaderIn(headers, name);
}

const std::string* HttpResponse::FindHeader(const std::string& name) const {
  return FindHeaderIn(headers, name);
}

std::string HttpRequest::Path() const {
  size_t question = target.find('?');
  return question == std::string::npos ? target : target.substr(0, question);
}

std::vector<std::pair<std::string, std::string>> HttpRequest::QueryParams()
    const {
  std::vector<std::pair<std::string, std::string>> params;
  size_t question = target.find('?');
  if (question == std::string::npos) return params;
  std::string query = target.substr(question + 1);
  for (const std::string& piece : Split(query, '&')) {
    if (piece.empty()) continue;
    size_t equals = piece.find('=');
    if (equals == std::string::npos) {
      params.emplace_back(piece, "");
    } else {
      params.emplace_back(piece.substr(0, equals), piece.substr(equals + 1));
    }
  }
  return params;
}

bool WantsKeepAlive(const HttpRequest& request) {
  if (request.version == "HTTP/1.0") return false;
  const std::string* connection = request.FindHeader("Connection");
  return connection == nullptr || !EqualsIgnoreCase(*connection, "close");
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

namespace {

/// Parses the request line + header block `raw[0, headers_end)` (body not
/// attached); shared by the pure parser and the incremental fd reader.
Result<HttpRequest> ParseRequestHead(const std::string& raw,
                                     size_t headers_end) {
  size_t line_end = raw.find("\r\n");
  std::string request_line = raw.substr(0, line_end);
  std::vector<std::string> parts = Split(request_line, ' ');
  if (parts.size() != 3) {
    return Status::Invalid("malformed request line '", request_line, "'");
  }
  HttpRequest request;
  request.method = parts[0];
  request.target = parts[1];
  request.version = parts[2];
  if (request.version.rfind("HTTP/1.", 0) != 0) {
    return Status::Invalid("unsupported protocol version '", request.version,
                           "'");
  }
  EVOCAT_RETURN_NOT_OK(ParseHeaderLines(raw, line_end + 2, headers_end,
                                        &request.headers));
  if (request.FindHeader("Transfer-Encoding") != nullptr) {
    return Status::NotImplemented(
        "Transfer-Encoding is not supported; use Content-Length");
  }
  return request;
}

/// The HTTP status a server should answer for a head/body parse failure.
int StatusForParseError(const Status& status) {
  return status.code() == StatusCode::kNotImplemented ? 501 : 400;
}

}  // namespace

Result<HttpRequest> ParseHttpRequest(const std::string& raw) {
  if (raw.find("\r\n") == std::string::npos) {
    return Status::Invalid("missing request line terminator");
  }
  size_t headers_end = raw.find("\r\n\r\n");
  if (headers_end == std::string::npos) {
    return Status::Invalid("missing header terminator");
  }
  EVOCAT_ASSIGN_OR_RETURN(HttpRequest request,
                          ParseRequestHead(raw, headers_end));
  EVOCAT_ASSIGN_OR_RETURN(int64_t length, ContentLengthOf(request.headers));
  size_t body_begin = headers_end + 4;
  if (raw.size() - body_begin < static_cast<size_t>(length)) {
    return Status::Invalid("body shorter than Content-Length");
  }
  request.body = raw.substr(body_begin, static_cast<size_t>(length));
  return request;
}

Result<HttpResponse> ParseHttpResponse(const std::string& raw) {
  size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) {
    return Status::Invalid("missing status line terminator");
  }
  std::string status_line = raw.substr(0, line_end);
  std::vector<std::string> parts = Split(status_line, ' ');
  if (parts.size() < 2 || parts[0].rfind("HTTP/1.", 0) != 0) {
    return Status::Invalid("malformed status line '", status_line, "'");
  }
  HttpResponse response;
  int64_t status = 0;
  EVOCAT_RETURN_NOT_OK(ParseInt64(parts[1], &status));
  response.status = static_cast<int>(status);

  size_t headers_end = raw.find("\r\n\r\n", line_end);
  if (headers_end == std::string::npos) {
    return Status::Invalid("missing header terminator");
  }
  EVOCAT_RETURN_NOT_OK(ParseHeaderLines(raw, line_end + 2, headers_end,
                                        &response.headers));
  if (const std::string* type = response.FindHeader("Content-Type")) {
    response.content_type = *type;
  }
  if (const std::string* connection = response.FindHeader("Connection")) {
    response.keep_alive = EqualsIgnoreCase(*connection, "keep-alive");
  }
  response.body = raw.substr(headers_end + 4);
  EVOCAT_ASSIGN_OR_RETURN(int64_t length, ContentLengthOf(response.headers));
  if (response.FindHeader("Content-Length") != nullptr &&
      static_cast<size_t>(length) <= response.body.size()) {
    response.body.resize(static_cast<size_t>(length));
  }
  return response;
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [key, value] : response.headers) {
    // The synthesized framing headers always win over custom entries.
    if (EqualsIgnoreCase(key, "Content-Type") ||
        EqualsIgnoreCase(key, "Content-Length") ||
        EqualsIgnoreCase(key, "Connection")) {
      continue;
    }
    out += key + ": " + value + "\r\n";
  }
  out += response.keep_alive ? "Connection: keep-alive\r\n\r\n"
                             : "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

std::string SerializeHttpRequest(const HttpRequest& request) {
  std::string out = request.method + " " +
                    (request.target.empty() ? "/" : request.target) +
                    " HTTP/1.1\r\n";
  out += "Host: evocatd\r\n";
  if (!request.body.empty()) {
    out += "Content-Type: application/json\r\n";
  }
  for (const auto& [key, value] : request.headers) {
    if (EqualsIgnoreCase(key, "Host") ||
        EqualsIgnoreCase(key, "Content-Type") ||
        EqualsIgnoreCase(key, "Content-Length") ||
        EqualsIgnoreCase(key, "Connection")) {
      continue;
    }
    out += key + ": " + value + "\r\n";
  }
  out += "Content-Length: " + std::to_string(request.body.size()) + "\r\n";
  out += request.keep_alive ? "Connection: keep-alive\r\n\r\n"
                            : "Connection: close\r\n\r\n";
  out += request.body;
  return out;
}

Result<HttpRequest> ReadHttpRequest(int fd, const HttpReadLimits& limits,
                                    int* http_status) {
  auto answer = [http_status](int status) {
    if (http_status != nullptr) *http_status = status;
  };
  answer(0);

  std::string raw;
  char buffer[4096];
  size_t headers_end = std::string::npos;
  Timer phase;  // idle first, restarted when the head starts/completes

  // Phase 1: read until the blank line separating headers from body. The
  // idle window applies until the first byte; from then on the whole head
  // must arrive within `header_timeout_ms` (slow-loris guard).
  while (headers_end == std::string::npos) {
    if (raw.size() > limits.max_header_bytes) {
      answer(431);
      return Status::OutOfRange("request line and headers exceed ",
                                limits.max_header_bytes, " bytes");
    }
    bool started = !raw.empty();
    int budget = (started ? limits.header_timeout_ms : limits.idle_timeout_ms) -
                 static_cast<int>(phase.ElapsedMillis());
    ssize_t n = 0;
    switch (RecvWithTimeout(fd, buffer, sizeof(buffer), budget, &n)) {
      case RecvOutcome::kTimeout:
        if (started) {
          answer(408);
          return Status::IOError("request head stalled beyond ",
                                 limits.header_timeout_ms, " ms");
        }
        return Status::IOError("connection idle beyond ",
                               limits.idle_timeout_ms, " ms");
      case RecvOutcome::kEof:
        return Status::IOError(started
                                   ? "connection closed mid-request"
                                   : "connection closed between requests");
      case RecvOutcome::kError:
        return Status::IOError("recv failed: ", std::strerror(errno));
      case RecvOutcome::kData:
        break;
    }
    if (!started) phase.Reset();  // head timing starts at the first byte
    size_t scan_from = raw.size() < 3 ? 0 : raw.size() - 3;
    raw.append(buffer, static_cast<size_t>(n));
    headers_end = raw.find("\r\n\r\n", scan_from);
  }
  if (headers_end > limits.max_header_bytes) {
    // The whole block can land in one recv, so the in-loop guard (which
    // only sees unterminated floods) is not enough on its own.
    answer(431);
    return Status::OutOfRange("request line and headers exceed ",
                              limits.max_header_bytes, " bytes");
  }

  // Phase 2: the headers announce the body size; read exactly that much
  // within the body deadline.
  Result<HttpRequest> head = ParseRequestHead(raw, headers_end);
  if (!head.ok()) {
    answer(StatusForParseError(head.status()));
    return head.status();
  }
  HttpRequest request = std::move(head).ValueOrDie();
  Result<int64_t> length_or = ContentLengthOf(request.headers);
  if (!length_or.ok()) {
    answer(400);
    return length_or.status();
  }
  int64_t length = length_or.ValueOrDie();
  if (static_cast<size_t>(length) > limits.max_body_bytes) {
    answer(413);
    return Status::OutOfRange("request body of ", length, " bytes exceeds ",
                              limits.max_body_bytes);
  }
  size_t total = headers_end + 4 + static_cast<size_t>(length);
  phase.Reset();
  while (raw.size() < total) {
    int budget =
        limits.body_timeout_ms - static_cast<int>(phase.ElapsedMillis());
    ssize_t n = 0;
    switch (RecvWithTimeout(fd, buffer,
                            std::min(sizeof(buffer), total - raw.size()),
                            budget, &n)) {
      case RecvOutcome::kTimeout:
        answer(408);
        return Status::IOError("request body stalled beyond ",
                               limits.body_timeout_ms, " ms");
      case RecvOutcome::kEof:
        return Status::IOError("connection closed mid-body");
      case RecvOutcome::kError:
        return Status::IOError("recv failed: ", std::strerror(errno));
      case RecvOutcome::kData:
        break;
    }
    raw.append(buffer, static_cast<size_t>(n));
  }
  request.body = raw.substr(headers_end + 4, static_cast<size_t>(length));
  return request;
}

Status WriteHttpResponse(int fd, const HttpResponse& response) {
  return SendAll(fd, SerializeHttpResponse(response));
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

namespace {

Result<int> ConnectTcpFd(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket failed: ", std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::Invalid("not an IPv4 address: '", host, "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("connect to ", host, ":", port,
                           " failed: ", std::strerror(errno));
  }
  return fd;
}

Result<int> ConnectUnixFd(const std::string& socket_path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket failed: ", std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status::Invalid("unix socket path too long: '", socket_path, "'");
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("connect to ", socket_path,
                           " failed: ", std::strerror(errno));
  }
  return fd;
}

/// Reads one Content-Length-framed response (works on keep-alive
/// connections, where EOF never comes).
Result<HttpResponse> ReadFramedResponse(int fd) {
  std::string raw;
  char buffer[4096];
  size_t headers_end = std::string::npos;
  while (headers_end == std::string::npos) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("recv failed: ", std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("connection closed before a complete response");
    }
    size_t scan_from = raw.size() < 3 ? 0 : raw.size() - 3;
    raw.append(buffer, static_cast<size_t>(n));
    headers_end = raw.find("\r\n\r\n", scan_from);
  }
  std::vector<std::pair<std::string, std::string>> headers;
  size_t line_end = raw.find("\r\n");
  EVOCAT_RETURN_NOT_OK(
      ParseHeaderLines(raw, line_end + 2, headers_end, &headers));
  EVOCAT_ASSIGN_OR_RETURN(int64_t length, ContentLengthOf(headers));
  size_t total = headers_end + 4 + static_cast<size_t>(length);
  while (raw.size() < total) {
    ssize_t n = ::recv(fd, buffer,
                       std::min(sizeof(buffer), total - raw.size()), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("recv failed: ", std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("connection closed mid-response");
    }
    raw.append(buffer, static_cast<size_t>(n));
  }
  return ParseHttpResponse(raw.substr(0, total));
}

Result<HttpResponse> FetchOverFd(int fd, const HttpRequest& request) {
  Status sent = SendAll(fd, SerializeHttpRequest(request));
  if (!sent.ok()) {
    ::close(fd);
    return sent;
  }
  Result<HttpResponse> response = ReadFramedResponse(fd);
  ::close(fd);
  return response;
}

/// xorshift64* jitter stream — cheap, seedable, no global RNG state.
uint64_t NextJitter(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1Dull;
}

}  // namespace

Result<HttpConnection> HttpConnection::ConnectTcp(const std::string& host,
                                                  int port) {
  EVOCAT_ASSIGN_OR_RETURN(int fd, ConnectTcpFd(host, port));
  return HttpConnection(fd);
}

HttpConnection::~HttpConnection() { Close(); }

HttpConnection::HttpConnection(HttpConnection&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

HttpConnection& HttpConnection::operator=(HttpConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void HttpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<HttpResponse> HttpConnection::RoundTrip(const HttpRequest& request) {
  if (fd_ < 0) return Status::IOError("connection is closed");
  HttpRequest persistent = request;
  persistent.keep_alive = true;
  Status sent = SendAll(fd_, SerializeHttpRequest(persistent));
  if (!sent.ok()) {
    Close();
    return sent;
  }
  Result<HttpResponse> response = ReadFramedResponse(fd_);
  if (!response.ok() ||
      (response.ok() && !response.ValueOrDie().keep_alive)) {
    Close();  // transport error, or the server said Connection: close
  }
  return response;
}

Result<HttpResponse> HttpFetch(const std::string& host, int port,
                               const HttpRequest& request) {
  EVOCAT_ASSIGN_OR_RETURN(int fd, ConnectTcpFd(host, port));
  return FetchOverFd(fd, request);
}

Result<HttpResponse> HttpFetchUnix(const std::string& socket_path,
                                   const HttpRequest& request) {
  EVOCAT_ASSIGN_OR_RETURN(int fd, ConnectUnixFd(socket_path));
  return FetchOverFd(fd, request);
}

Result<HttpResponse> HttpFetchRetry(const std::string& host, int port,
                                    const HttpRequest& request,
                                    const HttpRetryOptions& options) {
  uint64_t jitter_state =
      options.jitter_seed == 0 ? 0x9E3779B97F4A7C15ull : options.jitter_seed;
  int attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  Result<HttpResponse> last = Status::IOError("no attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      int64_t backoff = options.base_backoff_ms;
      for (int k = 1; k < attempt; ++k) backoff *= 2;
      backoff = std::min<int64_t>(backoff, options.max_backoff_ms);
      // A parseable Retry-After hint (seconds) takes precedence, capped so
      // a hostile server cannot park the client.
      if (last.ok()) {
        if (const std::string* hint =
                last.ValueOrDie().FindHeader("Retry-After")) {
          int64_t seconds = 0;
          if (ParseInt64(*hint, &seconds).ok() && seconds >= 0) {
            backoff = std::min<int64_t>(seconds * 1000,
                                        options.max_backoff_ms);
          }
        }
      }
      if (backoff > 0) {
        backoff += static_cast<int64_t>(NextJitter(&jitter_state) %
                                        (static_cast<uint64_t>(backoff) / 2 +
                                         1));
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }
    last = HttpFetch(host, port, request);
    if (!last.ok()) continue;  // connect/transport error: retry
    int status = last.ValueOrDie().status;
    if (status != 429 && status < 500) return last;
  }
  return last;
}

}  // namespace server
}  // namespace evocat
