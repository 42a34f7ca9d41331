// fsdep serve — a long-running analysis daemon. One process keeps the
// in-memory ComponentCache and the on-disk DiskCache warm across
// queries, so interactive clients get answers in sub-millisecond time
// instead of paying a full corpus re-parse per invocation.
//
// Protocol: newline-delimited JSON over a local Unix stream socket, one
// response line per request line, any number per connection:
//
//   -> {"id":"1","type":"extract","scenario":"s1","json":false}
//   <- {"id":"1","ok":true,"cached":false,"wall_us":8123,"stdout":"..."}
//
// The analysis types run a command of the command table
// (tools/commands.h): extract, depgraph -> graph, docck, blame ->
// explain. Their fields are that command's options bound through its
// spec, so `stdout` is the one-shot CLI's stdout by construction and an
// unknown or wrong-typed field gets {"ok":false,"error":...} naming it.
// ping, stats, invalidate and shutdown are serve-only (docs/serve.md).
//
// Counts: each request adds to the registry's serve.requests{type}, and
// to the unlabeled serve.memo_hits and serve.errors when it is one. The
// `stats` answer, the shutdown log line and the `serve` command's
// report facts all read those series, for the whole process.
//
// Concurrency: every connection gets its own handler thread (the global
// ThreadPool is NOT used for connections — parallelFor inside a request
// drains the pool, and a long-lived connection job would deadlock it);
// analysis work inside a request still fans out on the ThreadPool. Warm
// queries are answered from a response memo (`cached`: true) keyed by
// the command and its canonical typed options (the engine resolved).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "json/json.h"
#include "support/result.h"
#include "tools/commands.h"

namespace fsdep::tools {

struct ServeOptions {
  /// Unix socket path; the daemon unlinks a stale file on start and
  /// removes it on shutdown.
  std::string socket_path;
  /// Worker count for pipeline fan-out inside requests (0 = global).
  std::size_t jobs = 0;
};

/// FSDEP_SOCKET env var, else /tmp/fsdep.sock — shared by daemon and
/// client so `fsdep serve` + `fsdep query` agree without flags.
std::string defaultSocketPath();

/// The command that answers analysis request type `type` (extract,
/// depgraph, docck, blame); nullptr for any other type.
const Command* servedCommand(std::string_view type);

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions options) : options_(std::move(options)) {}
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds the socket and starts the accept loop. Errors (socket in
  /// use, bad path) are returned, not thrown.
  Result<bool> start();

  /// Blocks until a shutdown request arrives (or stop() is called).
  void wait();

  /// Stops the accept loop, joins every connection thread, removes the
  /// socket file. Idempotent.
  void stop();

  [[nodiscard]] const std::string& socketPath() const { return options_.socket_path; }
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }

  /// Handles one request line and returns the response line (no
  /// trailing newline). Public so tests can exercise the protocol
  /// without sockets.
  std::string handleLine(const std::string& line);

 private:
  void acceptLoop();
  void handleConnection(int fd);
  /// Dispatches a parsed request; fills `out` (ok/stdout or error).
  void dispatch(const std::string& type, const json::Object& request, json::Object& out);

  ServeOptions options_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex conn_mu_;
  std::vector<std::thread> connections_;

  /// Response memo: command -> canonical typed options -> stdout.
  /// Serving a warm query is a map lookup; `invalidate` clears it
  /// together with the component + disk caches.
  std::mutex memo_mu_;
  std::map<const Command*, std::map<Options, std::string>> memo_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

/// One decoded daemon response.
struct ServeResponse {
  bool ok = false;
  std::string id;
  std::string stdout_text;  ///< the one-shot CLI's stdout, byte-identical
  std::string error;
  bool cached = false;      ///< answered from the daemon's response memo
  std::uint64_t wall_us = 0;
};

/// Connects to `socket_path`, sends one request line, reads one response
/// line. Returns a transport error (no daemon, refused) as Result error;
/// a daemon-side failure comes back as ServeResponse{ok:false,error}.
Result<ServeResponse> serveRequest(const std::string& socket_path,
                                   const json::Object& request);

/// Raw round trip for tests and the --raw client flag: sends `line`
/// verbatim (a newline is appended) and returns the raw response line.
Result<std::string> serveRoundTrip(const std::string& socket_path, const std::string& line);

}  // namespace fsdep::tools
