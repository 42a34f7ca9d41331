#include "corpus/component_cache.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "ast/parser.h"
#include "corpus/corpus.h"
#include "lex/preprocessor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdep::corpus {

std::shared_ptr<const ComponentEntry> ComponentCache::build(const std::string& name) {
  obs::Span span("pipeline", "parse");
  span.arg("component", name);
  const auto start = std::chrono::steady_clock::now();

  auto entry = std::make_shared<ComponentEntry>();
  entry->name = name;
  entry->is_kernel = isKernelComponent(name);

  const std::string_view source = componentSource(name);
  if (source.empty()) throw std::runtime_error("unknown corpus component: " + name);

  const FileId file = entry->sm.addBuffer(name + ".c", std::string(source));
  lex::Preprocessor pp(entry->sm, entry->diags,
                       [](std::string_view header) { return headerSource(header); });
  std::vector<lex::Token> tokens = pp.tokenize(file);
  if (entry->diags.hasErrors()) {
    throw std::runtime_error("corpus preprocessing failed for " + name + ":\n" +
                             entry->diags.render(entry->sm));
  }

  ast::Parser parser(std::move(tokens), entry->diags);
  entry->tu = parser.parseTranslationUnit(name + ".c");
  if (entry->diags.hasErrors()) {
    throw std::runtime_error("corpus parse failed for " + name + ":\n" +
                             entry->diags.render(entry->sm));
  }

  entry->sema = std::make_unique<sema::Sema>(*entry->tu, entry->diags);
  if (!entry->sema->run()) {
    throw std::runtime_error("corpus sema failed for " + name + ":\n" +
                             entry->diags.render(entry->sm));
  }

  entry->seeds = componentSeeds(name);
  entry->parse_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
  return entry;
}

std::shared_ptr<const ComponentEntry> ComponentCache::get(const std::string& name,
                                                          bool* built) {
  static obs::Counter& wait_counter = obs::Registry::global().counter("cache.waits");

  std::shared_future<std::shared_ptr<const ComponentEntry>> future;
  std::promise<std::shared_ptr<const ComponentEntry>> promise;
  bool is_builder = false;
  std::uint64_t ticket = 0;
  Builder builder;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const bool enabled = enabled_.load(std::memory_order_relaxed);
    const auto it = slots_.find(name);
    if (enabled && it != slots_.end()) {
      future = it->second.future;
    } else {
      // First request or caching disabled: build. The ticket identifies
      // this build so failure eviction and clear() can't remove someone
      // else's slot. With caching disabled the build stays private —
      // existing entries are left untouched for when the cache is
      // re-enabled (ticket 0 never matches a slot, so the failure path
      // leaves the map alone too).
      future = promise.get_future().share();
      if (enabled) {
        ticket = next_ticket_++;
        slots_[name] = Slot{future, ticket};
      }
      is_builder = true;
      builder = builder_override_;
    }
  }

  // The per-component series are the only count of cache traffic. Their
  // registry lookup walks the registry's own lock-path; do it after mu_
  // is released so a serve daemon's hot hit path never serializes cache
  // traffic on it.
  obs::Registry::global()
      .counter(is_builder ? "cache.misses" : "cache.hits", {{"component", name}})
      .add();

  if (built != nullptr) *built = is_builder;
  if (is_builder) {
    if (obs::Trace::enabled()) {
      std::string args;
      obs::appendArg(args, "component", name);
      obs::Trace::instant("cache", "cache-miss", std::move(args));
    }
    try {
      promise.set_value(builder ? builder(name) : build(name));
    } catch (...) {
      // A failed build must not poison the slot: waiters that already
      // hold the shared_future see this exception once, but the slot is
      // evicted so the next get() retries. Only evict our own ticket —
      // clear() or a replacement build may have raced us.
      {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto slot = slots_.find(name);
        if (slot != slots_.end() && slot->second.ticket == ticket) {
          slots_.erase(slot);
        }
      }
      obs::Registry::global().counter("cache.build_failures", {{"component", name}}).add();
      promise.set_exception(std::current_exception());
    }
  } else if (obs::Trace::enabled()) {
    std::string args;
    obs::appendArg(args, "component", name);
    obs::Trace::instant("cache", "cache-hit", std::move(args));
  }
  // A hit whose entry is still being parsed by another thread blocks
  // here; make that wait visible — it is the cache's whole contention
  // story (one parse, N waiters).
  if (!is_builder && future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    wait_counter.add();
    obs::Span wait_span("cache", "cache-wait");
    wait_span.arg("component", name);
    return future.get();
  }
  return future.get();  // waiters see a failed build's exception once
}

std::uint64_t ComponentCache::hits() { return obs::Registry::global().counterSum("cache.hits"); }

std::uint64_t ComponentCache::misses() {
  return obs::Registry::global().counterSum("cache.misses");
}

std::uint64_t ComponentCache::buildFailures() {
  return obs::Registry::global().counterSum("cache.build_failures");
}

std::size_t ComponentCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void ComponentCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  // In-flight builders keep their promise/shared_future alive
  // independently of the map; dropping their slots here just means a
  // failure eviction later finds no matching ticket and does nothing.
  slots_.clear();
}

void ComponentCache::setBuilderForTesting(Builder builder) {
  const std::lock_guard<std::mutex> lock(mu_);
  builder_override_ = std::move(builder);
}

ComponentCache& ComponentCache::global() {
  static ComponentCache cache;
  return cache;
}

}  // namespace fsdep::corpus
