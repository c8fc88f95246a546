/**
 * @file
 * The resident-object cache every serving store is built on.
 *
 * Serving memory is bounded by per-tenant working sets that are
 * expensive to build and large to hold: NTT-form bootstrap keys
 * (runtime::KeyStore), gadget-scaled NTT databases (pir::PirDbStore).
 * ResidentCache<Key, Value> is the one policy both use:
 *
 *  - acquire(key) returns the key's resident Value, materializing it
 *    on a miss. Materialization happens exactly once per residency,
 *    even under concurrent acquires: later callers wait on the first
 *    caller's in-flight materialization through a shared_future.
 *    Distinct keys materialize concurrently, outside the cache lock.
 *  - Resident entries are weight-accounted by Value::bytes and
 *    evicted in LRU order once the total exceeds the budget (0 =
 *    unbounded). In-flight entries are never evicted. A value wider
 *    than the whole budget is still admitted, with everything else
 *    evicted; the alternative is an unservable tenant.
 *  - acquire() hands out shared_ptrs and eviction drops only the
 *    cache's own reference, so work in flight on an evicted value
 *    keeps it alive (pinned) until it completes.
 *
 * A store derives from the cache and supplies only materialize() and
 * the byte size it records in Value::bytes. Counters live both on the
 * cache (exact, via stats()) and in the obs::MetricsRegistry under the
 * store's label: <label>.hits / .misses / .evictions /
 * .materializations counters, the <label>.resident_bytes gauge and the
 * <label>.materialize_ns histogram.
 *
 * This header depends only on obs/ and the standard library, so any
 * layer (pir/ included) can build a store on it.
 */

#ifndef TRINITY_RUNTIME_RESIDENT_CACHE_H
#define TRINITY_RUNTIME_RESIDENT_CACHE_H

#include <future>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace trinity {
namespace runtime {

/** Env var @p var (bytes) when set, else @p fallback; fatal on
 *  garbage. Each store's budget knob reads through this. */
size_t budgetFromEnv(const char *var, size_t fallback);

/**
 * Weight-accounted LRU cache of materialized values. Thread-safe.
 * @p Value must expose `size_t bytes`, the weight charged against the
 * budget.
 */
template <class Key, class Value>
class ResidentCache
{
  public:
    /** Exact counters since construction. */
    struct Stats
    {
        u64 hits = 0;
        u64 misses = 0;
        u64 evictions = 0;
        u64 materializations = 0; ///< materializations actually paid
        size_t residentBytes = 0;

        double
        hitRate() const
        {
            u64 total = hits + misses;
            return total == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(total);
        }
    };

    ResidentCache(const ResidentCache &) = delete;
    ResidentCache &operator=(const ResidentCache &) = delete;

    /**
     * The key's resident value, materializing it (and evicting LRU
     * entries past the budget) on a miss. The returned pointer pins
     * the value for as long as the caller holds it.
     */
    std::shared_ptr<const Value>
    acquire(Key key)
    {
        std::promise<Ptr> prom;
        std::shared_future<Ptr> fut;
        {
            std::lock_guard<std::mutex> lk(mtx_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
                ++stats_.hits;
                metrics_.hits.add();
                fut = it->second.value;
            } else {
                ++stats_.misses;
                metrics_.misses.add();
                lru_.push_front(key);
                entries_.emplace(
                    key, Entry{prom.get_future().share(), 0, lru_.begin()});
            }
        }
        // A hit, or a miss whose materialization another thread has in
        // flight, resolves through the shared future; only the thread
        // that inserted the entry materializes.
        if (fut.valid()) {
            return fut.get();
        }
        Ptr value;
        u64 t0 = obs::detail::nowNs();
        try {
            value = materialize(key);
        } catch (...) {
            {
                std::lock_guard<std::mutex> lk(mtx_);
                auto it = entries_.find(key);
                if (it != entries_.end() && it->second.bytes == 0) {
                    dropLocked(it);
                }
            }
            prom.set_exception(std::current_exception());
            throw;
        }
        metrics_.materialize_ns.observe(obs::detail::nowNs() - t0);
        {
            std::lock_guard<std::mutex> lk(mtx_);
            // In-flight entries are never evicted, so the entry is
            // still here; account its weight and rebalance.
            entries_.at(key).bytes = value->bytes;
            stats_.residentBytes += value->bytes;
            ++stats_.materializations;
            evictToBudget(key);
            metrics_.resident_bytes.set(
                static_cast<i64>(stats_.residentBytes));
        }
        metrics_.materializations.add();
        prom.set_value(value);
        return value;
    }

    /** Whether @p key is resident (ready or in flight). */
    bool
    resident(Key key) const
    {
        std::lock_guard<std::mutex> lk(mtx_);
        return entries_.find(key) != entries_.end();
    }

    /** Drop a resident entry (false if absent or still
     *  materializing). Holders of acquire()d pointers are unaffected. */
    bool
    evict(Key key)
    {
        std::lock_guard<std::mutex> lk(mtx_);
        auto it = entries_.find(key);
        if (it == entries_.end() || it->second.bytes == 0) {
            return false;
        }
        dropLocked(it);
        return true;
    }

    /** Drop every fully materialized entry. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lk(mtx_);
        for (auto it = entries_.begin(); it != entries_.end();) {
            auto next = std::next(it);
            if (it->second.bytes != 0) {
                dropLocked(it);
            }
            it = next;
        }
    }

    size_t budgetBytes() const { return budget_; }
    size_t residentBytes() const { return stats().residentBytes; }
    const std::string &label() const { return label_; }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mtx_);
        return stats_;
    }

  protected:
    /** @p budget: resident-bytes ceiling, 0 = unbounded; @p label:
     *  metrics prefix. */
    ResidentCache(size_t budget, std::string label)
        : budget_(budget), label_(std::move(label)), metrics_(label_)
    {
    }
    ~ResidentCache() = default;

    /** Build @p key's resident form, recording its weight in
     *  Value::bytes. Called outside the cache lock, once per
     *  residency, possibly concurrently for distinct keys. */
    virtual std::shared_ptr<const Value> materialize(Key key) = 0;

  private:
    using Ptr = std::shared_ptr<const Value>;

    struct Entry
    {
        std::shared_future<Ptr> value;
        size_t bytes = 0; ///< 0 while materialization is in flight
        typename std::list<Key>::iterator lruIt;
    };
    using EntryIt = typename std::map<Key, Entry>::iterator;

    struct Metrics
    {
        explicit Metrics(const std::string &label)
            : hits(reg().counter(label + ".hits")),
              misses(reg().counter(label + ".misses")),
              evictions(reg().counter(label + ".evictions")),
              materializations(reg().counter(label + ".materializations")),
              resident_bytes(reg().gauge(label + ".resident_bytes")),
              materialize_ns(reg().histogram(label + ".materialize_ns"))
        {
        }
        static obs::MetricsRegistry &
        reg()
        {
            return obs::MetricsRegistry::instance();
        }

        obs::Counter &hits;
        obs::Counter &misses;
        obs::Counter &evictions;
        obs::Counter &materializations;
        obs::Gauge &resident_bytes;
        obs::Histogram &materialize_ns;
    };

    /** Evict LRU-tail entries until the budget holds; never evicts
     *  @p keep or in-flight entries. Caller holds mtx_. */
    void
    evictToBudget(const Key &keep)
    {
        if (budget_ == 0) {
            return;
        }
        // The candidate is the node before `it`; dropping it leaves
        // `it` valid, so the walk goes on from the LRU tail.
        auto it = lru_.end();
        while (stats_.residentBytes > budget_ && it != lru_.begin()) {
            EntryIt e = entries_.find(*std::prev(it));
            if (e->first == keep || e->second.bytes == 0) {
                --it;
            } else {
                dropLocked(e);
            }
        }
    }

    /** Caller holds mtx_. */
    void
    dropLocked(EntryIt it)
    {
        if (it->second.bytes != 0) {
            stats_.residentBytes -= it->second.bytes;
            ++stats_.evictions;
            metrics_.evictions.add();
            metrics_.resident_bytes.set(
                static_cast<i64>(stats_.residentBytes));
        }
        lru_.erase(it->second.lruIt);
        entries_.erase(it);
    }

    const size_t budget_; ///< 0 = unbounded
    const std::string label_;

    mutable std::mutex mtx_;
    std::map<Key, Entry> entries_;
    std::list<Key> lru_; ///< front = most recently used
    Stats stats_;

    Metrics metrics_;
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_RESIDENT_CACHE_H
