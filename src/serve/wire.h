// Wire protocol of the campaign service: length-prefixed JSON frames over a
// stream socket (TCP on 127.0.0.1 or a unix-domain socket), with the
// campaign request/response envelopes serialized through support/json_io —
// the same strict, byte-stable codec the shard artifacts use.
//
// Frame layout: a 4-byte big-endian unsigned payload length followed by
// exactly that many payload bytes. The reader enforces a caller-chosen
// payload cap, so an oversized or garbage length prefix is rejected with a
// diagnostic before any allocation grows past the cap — a malformed client
// can never wedge or OOM the daemon.
//
// Endpoint grammar (shared by `--serve` and `--dispatch`):
//   "9000"            TCP on 127.0.0.1:9000 ("0" binds an ephemeral port)
//   "host:9000"       TCP, host resolved via getaddrinfo (connect only)
//   anything else     unix-domain socket path
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "eval/campaign_spec.h"

namespace serve {

/// Protocol failures: truncated or oversized frames, malformed envelopes,
/// socket errors. Connection handlers catch this, answer with an error
/// response when possible, and keep serving.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes one frame (4-byte big-endian length + payload). Throws WireError
/// on socket errors or payloads past 2^32-1 bytes; a peer that hung up is
/// an error, never a SIGPIPE.
void write_frame(int fd, const std::string& payload);

/// Reads one frame into `*payload`. Returns false on clean EOF before the
/// first length byte (peer closed between frames); throws WireError on a
/// length past `max_payload`, mid-frame EOF, or socket errors.
[[nodiscard]] bool read_frame(int fd, size_t max_payload,
                              std::string* payload);

/// Listening socket for the daemon. `target` follows the endpoint grammar
/// above (the host form is connect-only; a listener binds 127.0.0.1). The
/// unix path is unlinked on close.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens; throws WireError naming the endpoint on failure.
  [[nodiscard]] static Listener bind_and_listen(const std::string& target);

  /// Blocks for one connection. Returns -1 with `errno` set on failure:
  /// EINVAL after `shutdown`, EBADF once closed, and transient errors such
  /// as EMFILE, ENFILE or ECONNABORTED, after which accepting again can
  /// succeed. EINTR is retried.
  [[nodiscard]] int accept_connection();

  /// Wakes a thread blocked in accept_connection (it fails with EINVAL)
  /// without closing the socket or writing any member, so it is safe while
  /// that thread runs.
  void shutdown();

  /// Closes the socket and removes the unix socket path. Idempotent. Not
  /// safe while another thread is in accept_connection.
  void close_listener();

  /// The endpoint clients should dial: the actual port for TCP (resolving
  /// a "0" bind), the path for unix sockets.
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }

 private:
  int fd_ = -1;
  std::string endpoint_;
  std::string unlink_path_;  // non-empty for unix sockets
};

/// Connects to a serving endpoint; throws WireError naming the target on
/// failure. The caller owns closing the returned fd.
[[nodiscard]] int connect_endpoint(const std::string& target);

/// One campaign request: the spec plus dispatch knobs. The knobs are
/// deliberately not part of the result-cache key — they cannot change the
/// report, only how it is computed.
struct CampaignRequest {
  eval::CampaignSpec spec;
  /// Shard workers to fan out to; 0 takes the daemon's default.
  unsigned workers = 0;
  /// False bypasses the fingerprint cache (the request recomputes even on
  /// a hit; the fresh result still populates the cache).
  bool use_cache = true;
  /// Robustness knob: 1-based shard whose first worker attempt is killed
  /// mid-run, forcing the retry path (0 = off). The final report must be
  /// byte-identical anyway — CI dispatches with this set and `cmp`s.
  unsigned kill_shard = 0;

  friend bool operator==(const CampaignRequest&,
                         const CampaignRequest&) = default;
};

/// The daemon's answer. `ok` false carries only `error`; success carries
/// the report body (byte-identical to the single-process run minus its two
/// header lines) plus the cache/fan-out telemetry the client prints to
/// stderr.
struct CampaignResponse {
  bool ok = false;
  std::string error;
  std::string fingerprint;
  bool cache_hit = false;
  uint64_t workers_spawned = 0;
  uint64_t worker_retries = 0;
  std::string report;

  friend bool operator==(const CampaignResponse&,
                         const CampaignResponse&) = default;
};

/// Envelope round trips (strict: format tag, version, every field
/// validated; unknown fields rejected). parse throws WireError.
[[nodiscard]] std::string serialize_campaign_request(
    const CampaignRequest& req);
[[nodiscard]] CampaignRequest parse_campaign_request(
    const std::string& payload);
[[nodiscard]] std::string serialize_campaign_response(
    const CampaignResponse& resp);
[[nodiscard]] CampaignResponse parse_campaign_response(
    const std::string& payload);

}  // namespace serve
