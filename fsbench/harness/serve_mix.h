// The serve-mixed request generator: a fixed key space drawn from the
// seed, and per-client request streams that are a pure function of
// (mix, seed, client) — the same seed always sends the same requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fsbench {

/// One distinct analysis request (the daemon memoizes per key).
struct ServeKey {
  std::string type;      ///< extract, depgraph, docck, blame
  std::string scenario;  ///< extract: s1..s4 or all
  std::string param;     ///< blame: "component.name"
  bool json = false;
  bool inter = false;
  bool self_deps = false;
};

struct ServeMix {
  std::vector<ServeKey> keys;  ///< reads draw one uniformly
  std::vector<std::string> blame_params;
  /// Each client sends `invalidate` at exactly one position in every
  /// `invalidate_period` of its requests (seeded phase).
  std::uint64_t invalidate_period = 0;
};

/// Every registry parameter, "component.name", in registry order.
std::vector<std::string> registryParameters();

/// The key space for a seed: 20 extract keys (s1-s4/all x text/json x
/// intra/inter), 4 depgraph keys (intra/inter x self-deps), docck, and
/// blame on 8 seeded registry parameters x intra/inter; 41 keys, drawn
/// with equal weight (no recorded usage says otherwise). One request in
/// 1000 per client is an invalidate, an arbitrary fixed share.
ServeMix makeServeMix(std::uint64_t seed, const std::vector<std::string>& registry_params);

class RequestStream {
 public:
  RequestStream(const ServeMix& mix, std::uint64_t seed, std::size_t client);

  /// Index of the next key to request, or -1 for an invalidate.
  int next();

 private:
  std::uint64_t random();

  const ServeMix& mix_;
  std::uint64_t state_;
  std::uint64_t position_ = 0;
  std::uint64_t phase_;
};

/// The request's NDJSON line (compact; id = key index).
std::string requestLine(const ServeKey& key, std::size_t index);
std::string invalidateLine();

/// One persistent NDJSON connection to the daemon (the protocol allows
/// any number of requests per connection). tools::serveRequest opens a
/// connection per request, and the daemon keeps one unjoined thread per
/// connection until it stops, so a closed loop of one-shot requests
/// exhausts the process's threads within seconds.
class ServeConnection {
 public:
  ServeConnection() = default;
  ~ServeConnection();
  ServeConnection(const ServeConnection&) = delete;
  ServeConnection& operator=(const ServeConnection&) = delete;

  /// Connects to the daemon's socket; false (with `error`) on failure.
  bool open(const std::string& socket_path, std::string& error);
  /// Sends `line` and reads one response line; false when the
  /// connection failed or closed.
  bool roundTrip(const std::string& line, std::string& response);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A daemon response line checked against its reference stdout.
struct ResponseCheck {
  bool matches = false;  ///< parsed, ok:true, and stdout == expected
  bool cached = false;
  double wall_us = 0;
};

/// Parses `raw` (inside a "json.parse" span) and compares its stdout with
/// `expected` byte for byte.
ResponseCheck checkResponse(const std::string& raw, const std::string& expected);

}  // namespace fsbench
