#include "serve/wire.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/json_io.h"

namespace serve {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw WireError(message);
}

[[noreturn]] void fail_errno(const std::string& message) {
  fail(message + ": " + std::strerror(errno));
}

bool all_digits(const std::string& s) {
  return !s.empty() && s.size() <= 5 &&
         s.find_first_not_of("0123456789") == std::string::npos;
}

/// Sends all of `data`; MSG_NOSIGNAL so a vanished peer is an error return,
/// never a process-killing SIGPIPE.
void send_all(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail_errno("wire: send failed");
    p += n;
    len -= static_cast<size_t>(n);
  }
}

/// Receives exactly `len` bytes. Returns false on EOF at the first byte
/// when `eof_ok`; throws on mid-buffer EOF or errors.
bool recv_all(int fd, void* data, size_t len, bool eof_ok) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail_errno("wire: recv failed");
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      fail("wire: connection closed mid-frame (got " + std::to_string(got) +
           " of " + std::to_string(len) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

struct Endpoint {
  bool is_tcp = false;
  std::string host;  // connect only; listeners bind 127.0.0.1
  uint16_t port = 0;
  std::string path;  // unix socket
};

/// See the endpoint grammar in wire.h. `for_listen` rejects the host:port
/// form (the daemon only binds loopback).
Endpoint parse_endpoint(const std::string& target, bool for_listen) {
  Endpoint ep;
  if (all_digits(target)) {
    unsigned long port = std::strtoul(target.c_str(), nullptr, 10);
    if (port > 65535) fail("wire: port " + target + " out of range");
    ep.is_tcp = true;
    ep.host = "127.0.0.1";
    ep.port = static_cast<uint16_t>(port);
    return ep;
  }
  size_t colon = target.rfind(':');
  if (colon != std::string::npos &&
      target.find('/') == std::string::npos &&
      all_digits(target.substr(colon + 1))) {
    if (for_listen) {
      fail("wire: a listener binds 127.0.0.1 — pass a bare port (or a unix "
           "socket path), not '" + target + "'");
    }
    unsigned long port = std::strtoul(target.c_str() + colon + 1, nullptr, 10);
    if (port == 0 || port > 65535) {
      fail("wire: port in '" + target + "' out of range");
    }
    ep.is_tcp = true;
    ep.host = target.substr(0, colon);
    ep.port = static_cast<uint16_t>(port);
    return ep;
  }
  if (target.empty()) fail("wire: empty endpoint");
  ep.path = target;
  return ep;
}

int make_unix_socket(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) {
    fail("wire: unix socket path too long: " + path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("wire: cannot create unix socket");
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return fd;
}

}  // namespace

void write_frame(int fd, const std::string& payload) {
  if (payload.size() > 0xffffffffULL) fail("wire: frame too large");
  unsigned char header[4];
  uint32_t len = static_cast<uint32_t>(payload.size());
  header[0] = static_cast<unsigned char>(len >> 24);
  header[1] = static_cast<unsigned char>(len >> 16);
  header[2] = static_cast<unsigned char>(len >> 8);
  header[3] = static_cast<unsigned char>(len);
  send_all(fd, header, sizeof(header));
  send_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, size_t max_payload, std::string* payload) {
  unsigned char header[4];
  if (!recv_all(fd, header, sizeof(header), /*eof_ok=*/true)) return false;
  uint32_t len = (static_cast<uint32_t>(header[0]) << 24) |
                 (static_cast<uint32_t>(header[1]) << 16) |
                 (static_cast<uint32_t>(header[2]) << 8) |
                 static_cast<uint32_t>(header[3]);
  if (len > max_payload) {
    fail("wire: frame of " + std::to_string(len) +
         " bytes exceeds the limit of " + std::to_string(max_payload));
  }
  payload->resize(len);
  if (len > 0) recv_all(fd, payload->data(), len, /*eof_ok=*/false);
  return true;
}

Listener::~Listener() { close_listener(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      endpoint_(std::move(other.endpoint_)),
      unlink_path_(std::move(other.unlink_path_)) {
  other.fd_ = -1;
  other.unlink_path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close_listener();
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    unlink_path_ = std::move(other.unlink_path_);
    other.fd_ = -1;
    other.unlink_path_.clear();
  }
  return *this;
}

Listener Listener::bind_and_listen(const std::string& target) {
  Endpoint ep = parse_endpoint(target, /*for_listen=*/true);
  Listener l;
  if (ep.is_tcp) {
    l.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (l.fd_ < 0) fail_errno("wire: cannot create socket");
    int one = 1;
    ::setsockopt(l.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(l.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      int err = errno;
      l.close_listener();
      fail("wire: cannot bind 127.0.0.1:" + std::to_string(ep.port) + ": " +
           std::strerror(err));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(l.fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    l.endpoint_ = std::to_string(ntohs(addr.sin_port));
  } else {
    sockaddr_un addr;
    l.fd_ = make_unix_socket(ep.path, &addr);
    // A stale socket file from a dead daemon blocks bind; remove it (a
    // *live* daemon would still win the race on listen, and two daemons on
    // one path is operator error either way).
    ::unlink(ep.path.c_str());
    if (::bind(l.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      int err = errno;
      l.close_listener();
      fail("wire: cannot bind unix socket '" + ep.path + "': " +
           std::strerror(err));
    }
    l.unlink_path_ = ep.path;
    l.endpoint_ = ep.path;
  }
  if (::listen(l.fd_, 16) < 0) {
    int err = errno;
    l.close_listener();
    fail("wire: listen failed: " + std::string(std::strerror(err)));
  }
  return l;
}

int Listener::accept_connection() {
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    return -1;  // closed (or unrecoverable) — the accept loop exits
  }
}

void Listener::close_listener() {
  if (fd_ >= 0) {
    // shutdown() unblocks a concurrent accept(); close alone may not.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

int connect_endpoint(const std::string& target) {
  Endpoint ep = parse_endpoint(target, /*for_listen=*/false);
  if (!ep.is_tcp) {
    sockaddr_un addr;
    int fd = make_unix_socket(ep.path, &addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      int err = errno;
      ::close(fd);
      fail("wire: cannot connect to unix socket '" + ep.path + "': " +
           std::strerror(err));
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  std::string port_text = std::to_string(ep.port);
  int rc = ::getaddrinfo(ep.host.c_str(), port_text.c_str(), &hints, &res);
  if (rc != 0) {
    fail("wire: cannot resolve '" + ep.host + "': " + gai_strerror(rc));
  }
  int fd = -1;
  std::string err_text = "no addresses";
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      err_text = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    err_text = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    fail("wire: cannot connect to " + ep.host + ":" + port_text + ": " +
         err_text);
  }
  return fd;
}

namespace {

constexpr const char* kRequestTag = "devil-repro-campaign-request";
constexpr const char* kResponseTag = "devil-repro-campaign-response";

using support::require;
using support::require_u64;

support::JsonValue parse_payload(const std::string& payload,
                                 const std::string& ctx) {
  try {
    return support::parse_json(payload);
  } catch (const support::JsonError& e) {
    fail(ctx + ": " + e.what());
  }
}

}  // namespace

std::string serialize_campaign_request(const CampaignRequest& req) {
  support::JsonValue v = support::JsonValue::object();
  v.set("format", kRequestTag);
  v.set("version", 1);
  v.set("spec", eval::campaign_spec_to_json(req.spec));
  v.set("workers", static_cast<uint64_t>(req.workers));
  v.set("cache", req.use_cache);
  v.set("kill_shard", static_cast<uint64_t>(req.kill_shard));
  return support::to_json(v);
}

CampaignRequest parse_campaign_request(const std::string& payload) {
  const std::string ctx = "campaign request";
  support::JsonValue v = parse_payload(payload, ctx);
  try {
    support::check_format(v, ctx, kRequestTag, 1);
    support::check_known_fields(
        v, ctx, {"format", "version", "spec", "workers", "cache", "kill_shard"});
    CampaignRequest req;
    req.spec = eval::campaign_spec_from_json(require(v, "spec", ctx),
                                             ctx + " spec");
    req.workers = static_cast<unsigned>(require_u64(v, "workers", ctx, 999));
    req.use_cache = require(v, "cache", ctx).as_bool();
    req.kill_shard =
        static_cast<unsigned>(require_u64(v, "kill_shard", ctx, 999));
    return req;
  } catch (const WireError&) {
    throw;
  } catch (const std::runtime_error& e) {
    fail(e.what());  // JsonError / spec validation → protocol error
  }
}

std::string serialize_campaign_response(const CampaignResponse& resp) {
  support::JsonValue v = support::JsonValue::object();
  v.set("format", kResponseTag);
  v.set("version", 1);
  v.set("ok", resp.ok);
  v.set("error", resp.error);
  v.set("fingerprint", resp.fingerprint);
  v.set("cache_hit", resp.cache_hit);
  v.set("workers_spawned", resp.workers_spawned);
  v.set("worker_retries", resp.worker_retries);
  v.set("report", resp.report);
  return support::to_json(v);
}

CampaignResponse parse_campaign_response(const std::string& payload) {
  const std::string ctx = "campaign response";
  support::JsonValue v = parse_payload(payload, ctx);
  try {
    support::check_format(v, ctx, kResponseTag, 1);
    support::check_known_fields(
        v, ctx,
        {"format", "version", "ok", "error", "fingerprint", "cache_hit",
         "workers_spawned", "worker_retries", "report"});
    CampaignResponse resp;
    resp.ok = require(v, "ok", ctx).as_bool();
    resp.error = require(v, "error", ctx).as_string();
    resp.fingerprint = require(v, "fingerprint", ctx).as_string();
    resp.cache_hit = require(v, "cache_hit", ctx).as_bool();
    resp.workers_spawned =
        require_u64(v, "workers_spawned", ctx, UINT64_MAX / 2);
    resp.worker_retries =
        require_u64(v, "worker_retries", ctx, UINT64_MAX / 2);
    resp.report = require(v, "report", ctx).as_string();
    return resp;
  } catch (const WireError&) {
    throw;
  } catch (const std::runtime_error& e) {
    fail(e.what());
  }
}

}  // namespace serve
