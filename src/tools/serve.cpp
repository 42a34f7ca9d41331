#include "tools/serve.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "corpus/pipeline.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tools/commands.h"

namespace fsdep::tools {

namespace {

using Clock = std::chrono::steady_clock;

/// Writes one line (with trailing '\n') fully; short writes retried.
bool writeLine(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::write(fd, framed.data() + sent, framed.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const Command* servedCommand(std::string_view type) {
  static constexpr std::pair<std::string_view, std::string_view> kServed[] = {
      {"extract", "extract"}, {"depgraph", "graph"}, {"docck", "docck"}, {"blame", "explain"}};
  for (const auto& [request, command] : kServed) {
    if (type == request) return findCommand(command);
  }
  return nullptr;
}

std::string defaultSocketPath() {
  const char* env = std::getenv("FSDEP_SOCKET");
  if (env != nullptr && env[0] != '\0') return env;
  return "/tmp/fsdep.sock";
}

ServeDaemon::~ServeDaemon() { stop(); }

Result<bool> ServeDaemon::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  if (options_.socket_path.empty()) return makeError("serve: empty socket path");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return makeError("serve: socket path too long: " + options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return makeError("serve: socket(): " + std::string(std::strerror(errno)));

  // A stale socket file from a crashed daemon would make bind fail;
  // unlink first — a live daemon still holds the listening socket, so
  // its clients error out on connect, which is the observable signal.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return makeError("serve: bind(" + options_.socket_path + "): " + err);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return makeError("serve: listen(): " + err);
  }

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { acceptLoop(); });
  FSDEP_LOG_INFO("serve", "listening on %s", options_.socket_path.c_str());
  return true;
}

void ServeDaemon::acceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    // One thread per connection, NOT the global ThreadPool: a pipeline
    // parallelFor inside a request waits for the pool to drain, and a
    // long-lived connection job sitting in the pool would deadlock it.
    const std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.emplace_back([this, fd] { handleConnection(fd); });
  }
}

void ServeDaemon::handleConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    std::size_t nl = 0;
    while ((nl = buffer.find('\n', pos)) != std::string::npos) {
      const std::string line = buffer.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.empty()) continue;
      if (!writeLine(fd, handleLine(line))) {
        ::close(fd);
        return;
      }
    }
    buffer.erase(0, pos);
  }
  ::close(fd);
}

std::string ServeDaemon::handleLine(const std::string& line) {
  static obs::Counter& request_counter = obs::Registry::global().counter("serve.requests");
  static obs::Counter& error_counter = obs::Registry::global().counter("serve.errors");
  static obs::Counter& memo_counter = obs::Registry::global().counter("serve.memo_hits");
  static obs::Histogram& wall_histogram = obs::Registry::global().histogram(
      "serve.request_us", {},
      {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 500000});

  const auto start = Clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  request_counter.add();

  json::Object response;
  Result<json::Value> parsed = json::parse(line);
  std::string type;
  if (!parsed.ok() || !parsed.value().isObject()) {
    response["ok"] = false;
    response["error"] =
        "malformed request: " + (parsed.ok() ? "not an object" : parsed.error().message);
  } else {
    const json::Object& request = parsed.value().asObject();
    const json::Value* id = request.find("id");
    if (id != nullptr) response["id"] = *id;
    const json::Value* type_field = request.find("type");
    type = type_field != nullptr && type_field->isString() ? type_field->asString() : "";
    obs::Span span("serve", "request");
    span.arg("type", type);
    obs::Registry::global().counter("serve.requests", {{"type", type}}).add();
    try {
      dispatch(type, request, response);
    } catch (const std::exception& e) {
      response["ok"] = false;
      response["error"] = std::string(e.what());
    }
  }

  if (!response.contains("ok")) response["ok"] = true;
  const bool ok = response.find("ok")->asBool();
  if (!ok) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    error_counter.add();
  }
  if (response.find("cached") != nullptr && response.find("cached")->asBool()) {
    memo_hits_.fetch_add(1, std::memory_order_relaxed);
    memo_counter.add();
  }
  const std::uint64_t wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count());
  response["wall_us"] = wall_us;
  wall_histogram.observe(wall_us);
  return json::writeCompact(json::Value(std::move(response)));
}

void ServeDaemon::dispatch(const std::string& type, const json::Object& request,
                           json::Object& out) {
  if (type == "ping") {
    out["ok"] = true;
    out["stdout"] = "pong";
    return;
  }

  if (type == "shutdown") {
    out["ok"] = true;
    out["stdout"] = "shutting down";
    {
      const std::lock_guard<std::mutex> lock(shutdown_mu_);
      shutdown_requested_ = true;
    }
    shutdown_cv_.notify_all();
    return;
  }

  if (type == "stats") {
    const corpus::DiskCache& disk = corpus::DiskCache::global();
    json::Object stats;
    stats["requests"] = requests_.load(std::memory_order_relaxed);
    stats["memo_hits"] = memo_hits_.load(std::memory_order_relaxed);
    stats["errors"] = errors_.load(std::memory_order_relaxed);
    stats["component_cache_hits"] = corpus::ComponentCache::global().hits();
    stats["component_cache_misses"] = corpus::ComponentCache::global().misses();
    stats["component_cache_build_failures"] = corpus::ComponentCache::global().buildFailures();
    stats["disk_cache_enabled"] = disk.enabled();
    stats["disk_cache_hits"] = disk.hits();
    stats["disk_cache_misses"] = disk.misses();
    stats["disk_cache_stores"] = disk.stores();
    out["ok"] = true;
    out["stdout"] = json::writeCompact(json::Value(std::move(stats)));
    return;
  }

  if (type == "invalidate") {
    {
      const std::lock_guard<std::mutex> lock(memo_mu_);
      memo_.clear();
    }
    corpus::ComponentCache::global().clear();
    corpus::DiskCache::global().invalidateAll();
    out["ok"] = true;
    out["stdout"] = "caches invalidated";
    return;
  }

  const Command* command = servedCommand(type);
  if (command == nullptr) {
    out["ok"] = false;
    out["error"] = type.empty() ? "missing request 'type'" : "unknown request type '" + type + "'";
    return;
  }
  const Result<Options> options = bindRequest(*command, request);
  if (!options.ok()) {
    out["ok"] = false;
    out["error"] = type + ": " + options.error().message;
    return;
  }

  // Analysis requests are memoized on the command and its canonical
  // typed options: the warm path is one map lookup — no pipeline, no disk.
  {
    const std::lock_guard<std::mutex> lock(memo_mu_);
    const std::map<Options, std::string>& answers = memo_[command];
    const auto it = answers.find(options.value());
    if (it != answers.end()) {
      out["ok"] = true;
      out["cached"] = true;
      out["stdout"] = it->second;
      return;
    }
  }

  CommandResult result = command->run(options.value(), CommandContext{options_.jobs});
  if (result.exit_code != 0) {
    while (!result.err.empty() && result.err.back() == '\n') result.err.pop_back();
    out["ok"] = false;
    out["error"] = std::move(result.err);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(memo_mu_);
    memo_[command][options.value()] = result.out;
  }
  out["ok"] = true;
  out["cached"] = false;
  out["stdout"] = std::move(result.out);
}

void ServeDaemon::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_ || stopping_.load(std::memory_order_acquire);
  });
}

void ServeDaemon::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();

  // Unblock accept() with a throwaway self-connection; shutdown() on
  // the listening fd is not portable enough to rely on alone.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
    (void)::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::thread> connections;
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
  ::unlink(options_.socket_path.c_str());
  FSDEP_LOG_INFO("serve", "stopped after %llu request(s)",
                 static_cast<unsigned long long>(requests_.load(std::memory_order_relaxed)));
}

Result<std::string> serveRoundTrip(const std::string& socket_path, const std::string& line) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return makeError("query: socket(): " + std::string(std::strerror(errno)));

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return makeError("query: socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return makeError("query: cannot connect to " + socket_path + ": " + err +
                     " (is `fsdep serve` running?)");
  }
  if (!writeLine(fd, line)) {
    ::close(fd);
    return makeError("query: write failed");
  }

  std::string buffer;
  char chunk[4096];
  while (buffer.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t nl = buffer.find('\n');
  if (nl == std::string::npos) return makeError("query: connection closed before a response");
  return buffer.substr(0, nl);
}

Result<ServeResponse> serveRequest(const std::string& socket_path,
                                   const json::Object& request) {
  Result<std::string> raw =
      serveRoundTrip(socket_path, json::writeCompact(json::Value(request)));
  if (!raw.ok()) return makeError(raw.error().message);

  Result<json::Value> parsed = json::parse(raw.value());
  if (!parsed.ok() || !parsed.value().isObject()) {
    return makeError("query: malformed response: " + raw.value());
  }
  const json::Object& object = parsed.value().asObject();
  ServeResponse response;
  response.ok = object.find("ok") != nullptr && object.find("ok")->asBool();
  if (const json::Value* id = object.find("id"); id != nullptr && id->isString()) {
    response.id = id->asString();
  }
  if (const json::Value* text = object.find("stdout"); text != nullptr && text->isString()) {
    response.stdout_text = text->asString();
  }
  if (const json::Value* error = object.find("error"); error != nullptr && error->isString()) {
    response.error = error->asString();
  }
  if (const json::Value* cached = object.find("cached"); cached != nullptr) {
    response.cached = cached->asBool();
  }
  if (const json::Value* wall = object.find("wall_us"); wall != nullptr) {
    response.wall_us = static_cast<std::uint64_t>(wall->asInt());
  }
  return response;
}

}  // namespace fsdep::tools
