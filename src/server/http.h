/// \file http.h
/// \brief Minimal HTTP/1.1 message layer for evocatd.
///
/// Exactly the subset the JobSpec protocol needs: request line + headers +
/// Content-Length body, with HTTP/1.1 keep-alive (multiple requests per
/// connection; `Connection: close` — or HTTP/1.0 — opts out). No chunked
/// transfer, no TLS, no compression. The parser is pure (string -> struct,
/// unit-testable without sockets); `ReadHttpRequest` / `WriteHttpResponse`
/// do the fd plumbing for TCP and Unix-domain sockets alike, with byte
/// bounds and deadlines so slow-loris clients cannot pin a server thread.
/// `HttpConnection` + `HttpFetch`/`HttpFetchRetry` form the tiny client the
/// integration tests (and quick scripting) use; the retry variant backs off
/// exponentially with jitter on connect errors, 5xx and 429.

#ifndef EVOCAT_SERVER_HTTP_H_
#define EVOCAT_SERVER_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace evocat {
namespace server {

/// \brief One parsed request.
struct HttpRequest {
  std::string method;   ///< uppercase, e.g. "GET"
  std::string target;   ///< raw request target, e.g. "/v1/jobs/job-1?x=1"
  std::string version = "HTTP/1.1";  ///< e.g. "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Client-side serialization only: ask the server to keep the
  /// connection open (`Connection: keep-alive` instead of `close`).
  bool keep_alive = false;

  /// \brief Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(const std::string& name) const;
  /// \brief The target's path without the query string.
  std::string Path() const;
  /// \brief Query parameters in order ("k=v" pairs; flag params get "").
  std::vector<std::pair<std::string, std::string>> QueryParams() const;
};

/// \brief True when the peer may send another request on this connection:
/// HTTP/1.1 without `Connection: close` (HTTP/1.0 is one-shot).
bool WantsKeepAlive(const HttpRequest& request);

/// \brief One response to serialize.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers to emit (e.g. `Retry-After`); also holds the parsed
  /// headers on the client side. Content-Type/Length and Connection are
  /// always synthesized from the fields above.
  std::vector<std::pair<std::string, std::string>> headers;
  /// Serialize `Connection: keep-alive` instead of `close`.
  bool keep_alive = false;

  const std::string* FindHeader(const std::string& name) const;
};

/// \brief Standard reason phrase for a status code ("OK", "Not Found", ...).
const char* HttpReasonPhrase(int status);

/// \brief Parses a complete request (headers already terminated by CRLFCRLF,
/// body matching Content-Length). Malformed input is InvalidArgument.
Result<HttpRequest> ParseHttpRequest(const std::string& raw);

/// \brief Parses a complete response (status line, headers, body to end).
Result<HttpResponse> ParseHttpResponse(const std::string& raw);

/// \brief Serializes with Content-Length, extra headers and the Connection
/// header matching `keep_alive`.
std::string SerializeHttpResponse(const HttpResponse& response);

/// \brief Serializes a client request the same way.
std::string SerializeHttpRequest(const HttpRequest& request);

/// \brief Byte bounds and deadlines for reading one request off a socket.
///
/// The idle timeout is the keep-alive window (time until the first byte of
/// the next request); the header/body timeouts bound how long a *started*
/// request may dribble in — the slow-loris guard.
struct HttpReadLimits {
  /// 431 beyond this many request-line + header bytes.
  size_t max_header_bytes = 64 * 1024;
  /// 413 beyond this many body bytes.
  size_t max_body_bytes = 8 * 1024 * 1024;
  /// Close (silently) when no first byte arrives within this window.
  int idle_timeout_ms = 30000;
  /// 408 when the header block takes longer than this to arrive.
  int header_timeout_ms = 10000;
  /// 408 when the body takes longer than this to arrive.
  int body_timeout_ms = 30000;
};

/// \brief Reads one request from a connected socket.
///
/// On failure `*http_status` (when non-null) receives the status the server
/// should answer before closing — 431/413 for the byte bounds, 408 for a
/// started-but-stalled request, 400 for a malformed one — or 0 when the
/// connection is already dead / idle-timed-out and nothing can be answered.
Result<HttpRequest> ReadHttpRequest(int fd, const HttpReadLimits& limits,
                                    int* http_status);

/// \brief Writes the serialized response; IOError on a broken connection.
Status WriteHttpResponse(int fd, const HttpResponse& response);

/// \brief A client connection that can carry several round trips
/// (keep-alive). Move-only; closes on destruction.
class HttpConnection {
 public:
  /// \brief Connects over TCP (IPv4 dotted quad).
  static Result<HttpConnection> ConnectTcp(const std::string& host, int port);

  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(HttpConnection&& other) noexcept;
  HttpConnection& operator=(HttpConnection&& other) noexcept;
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// \brief Sends the request (keep-alive unless the request says close)
  /// and reads the Content-Length-framed response. IOError ends the
  /// connection's usefulness (`connected()` turns false).
  Result<HttpResponse> RoundTrip(const HttpRequest& request);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  explicit HttpConnection(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// \brief One-shot client round trip over TCP: connect, send, read.
Result<HttpResponse> HttpFetch(const std::string& host, int port,
                               const HttpRequest& request);

/// \brief Same over a Unix-domain socket path.
Result<HttpResponse> HttpFetchUnix(const std::string& socket_path,
                                   const HttpRequest& request);

/// \brief Retry policy for `HttpFetchRetry`.
struct HttpRetryOptions {
  /// Total attempts (first try included).
  int max_attempts = 4;
  /// Backoff before attempt k (0-based retries): base * 2^k, capped below,
  /// plus jitter in [0, backoff/2] so a herd of clients desynchronizes.
  int base_backoff_ms = 100;
  int max_backoff_ms = 2000;
  /// Jitter stream seed (deterministic per client; vary per caller).
  uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;
};

/// \brief `HttpFetch` with retries on connect/transport errors, 5xx and
/// 429 (a parseable `Retry-After` wins over the computed backoff, capped at
/// `max_backoff_ms`). Returns the last response or transport error.
Result<HttpResponse> HttpFetchRetry(const std::string& host, int port,
                                    const HttpRequest& request,
                                    const HttpRetryOptions& options);

}  // namespace server
}  // namespace evocat

#endif  // EVOCAT_SERVER_HTTP_H_
