/**
 * @file
 * The serving loop every request front end is built on.
 *
 * BatchingServer<Request, Result> owns the policy PbsServer and
 * PirServer share: a request queue, one worker thread that drains it
 * in windows, and the overload policy. Clients submit() a request for
 * a tenant and receive a std::future<Result> that always resolves —
 * with the result or with an exception — never hangs. Per window:
 *
 *  1. Assembly. The worker holds a window open until it holds
 *     maxBatch requests or maxWaitUs has passed (shutdown flushes
 *     immediately), then takes up to maxBatch requests in arrival
 *     order.
 *  2. Deadline shedding. Requests whose queue wait already exceeds
 *     deadlineUs fail with DeadlineExceeded instead of running late.
 *  3. Grouping. The window is stable-sorted by tenant, so each group
 *     keeps its tenant's arrival order, and every group goes to the
 *     server's executor in one call: one key set per fused PBS batch,
 *     one pinned database per PIR group.
 *  4. Execution. The executor runs on the worker thread, outside the
 *     server lock. An exception from it (a failed key fault such as
 *     InvalidKeyMaterial, a failed answer) resolves that group's
 *     futures with the exception; the worker goes on with the next
 *     group.
 *  5. Account before resolve: a client that has seen its future
 *     resolve also sees its request in stats().
 *
 * Admission happens at submit(): a request that would grow the queue
 * past maxQueue fails at once with AdmissionRejected. Servers reject
 * malformed requests in their own submit() with InvalidRequest before
 * they reach the queue. The destructor drains: every admitted request
 * is executed (or shed) before the worker joins.
 *
 * Metrics land under the options' label: the <label>.queue_depth
 * gauge; <label>.batch_size, .queue_wait_ns (submit to group start)
 * and .request_latency_ns (submit to result) histograms; and the
 * <label>.requests, .batches, .rejected and .shed counters. Each group
 * runs inside one trace span on the label's track.
 *
 * Policy knobs (env defaults via ServerOptions::fromEnv()):
 *   TRINITY_RUNTIME_BATCH        max requests per window (default:
 *                                the active engine's preferredBatch()
 *                                hint, floor 8)
 *   TRINITY_RUNTIME_MAX_WAIT_US  how long an underfull window stays
 *                                open, microseconds (default 200)
 *   TRINITY_RUNTIME_MAX_QUEUE    admission bound on queued requests
 *                                (0 = unbounded)
 *   TRINITY_RUNTIME_DEADLINE_US  queue-wait budget before a request
 *                                is shed (0 = never shed)
 */

#ifndef TRINITY_RUNTIME_BATCHING_SERVER_H
#define TRINITY_RUNTIME_BATCHING_SERVER_H

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trinity {
namespace runtime {

/** Base of every policy-driven request failure. */
class RequestRejected : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Admission control: the queue was full at submit time. */
class AdmissionRejected : public RequestRejected
{
    using RequestRejected::RequestRejected;
};

/** The request waited past the deadline budget and was shed. */
class DeadlineExceeded : public RequestRejected
{
    using RequestRejected::RequestRejected;
};

/** The request does not fit the server: a malformed ciphertext or
 *  query (refused at submit time), or a tenant it has no keys for. */
class InvalidRequest : public RequestRejected
{
    using RequestRejected::RequestRejected;
};

/** A tenant's key material does not fit the server's parameter set:
 *  refused when a resident store materializes it, which fails that
 *  tenant's group and no other. */
class InvalidKeyMaterial : public RequestRejected
{
    using RequestRejected::RequestRejected;
};

/** Aggregation and overload policy for the serving loop. */
struct ServerOptions
{
    /** Max requests per window; 0 resolves to the active engine's
     *  preferredBatch() hint. */
    size_t maxBatch = 0;
    /** Deadline after which an underfull window is flushed anyway,
     *  counted from when the worker starts assembling it. */
    u64 maxWaitUs = 200;
    /** Admission bound on queued requests; 0 = unbounded. */
    size_t maxQueue = 0;
    /** Per-request deadline budget (queue wait, microseconds); 0 =
     *  never shed. */
    u64 deadlineUs = 0;
    /** Metrics prefix and trace track ("pbs_server"; shards use
     *  "pbs_server.shard<i>" so tail latency reports per shard). */
    std::string label = "pbs_server";

    /** Defaults with the TRINITY_RUNTIME_* env knobs applied
     *  (strictly validated; fatal on garbage). */
    static ServerOptions fromEnv();

    /** maxBatch with the 0 default resolved against the engine hint. */
    size_t resolvedMaxBatch() const;
};

/** Serving counters, readable while the server runs. */
struct ServerStats
{
    u64 requests = 0;     ///< requests executed
    u64 batches = 0;      ///< groups executed
    u64 largestBatch = 0; ///< widest group observed
    u64 rejected = 0;     ///< admission-rejected at submit
    u64 shed = 0;         ///< deadline-shed at window assembly

    double
    avgBatch() const
    {
        return batches == 0
                   ? 0.0
                   : static_cast<double>(requests) /
                         static_cast<double>(batches);
    }
};

/** A server's registry metrics, bound once by label. */
struct ServerMetrics
{
    explicit ServerMetrics(const std::string &label);

    obs::Gauge &queue_depth;
    obs::Histogram &batch_size;
    obs::Histogram &queue_wait_ns;
    obs::Histogram &request_latency_ns;
    obs::Counter &requests;
    obs::Counter &batches;
    obs::Counter &rejected;
    obs::Counter &shed;
};

/** A future already failed with @p err: how a server's submit()
 *  answers a request it refuses. */
template <class Result>
std::future<Result>
failedFuture(std::exception_ptr err)
{
    std::promise<Result> p;
    p.set_exception(std::move(err));
    return p.get_future();
}

/**
 * The queue, worker and policy described in the file comment, driven
 * by a per-group executor. Thread-safe for any number of concurrent
 * submitters.
 */
template <class Request, class Result>
class BatchingServer
{
  public:
    /** Runs one tenant's group of a window and returns one result per
     *  request, in order, or throws to fail the whole group. Called on
     *  the worker thread, outside the server lock. */
    using Executor = std::function<std::vector<Result>(
        u64 tenant, const std::vector<const Request *> &group)>;

    /** @p spanName (a literal) names each group's trace span. */
    BatchingServer(ServerOptions opts, const char *spanName, Executor exec)
        : opts_(std::move(opts)), maxBatch_(opts_.resolvedMaxBatch()),
          track_(obs::internTraceStr(opts_.label)), spanName_(spanName),
          exec_(std::move(exec)), metrics_(opts_.label),
          worker_([this] { workerLoop(); })
    {
    }

    ~BatchingServer()
    {
        {
            std::lock_guard<std::mutex> lk(mtx_);
            stop_ = true;
        }
        arrived_.notify_all();
        worker_.join();
    }

    BatchingServer(const BatchingServer &) = delete;
    BatchingServer &operator=(const BatchingServer &) = delete;

    /** Enqueue @p req on behalf of @p tenant. */
    std::future<Result>
    submit(u64 tenant, Request req)
    {
        Pending p{tenant, std::move(req), {}, obs::detail::nowNs()};
        std::future<Result> result = p.result.get_future();
        bool admitted = false;
        {
            std::lock_guard<std::mutex> lk(mtx_);
            trinity_assert(!stop_, "submit() on a stopped server");
            admitted = opts_.maxQueue == 0 || queue_.size() < opts_.maxQueue;
            if (admitted) {
                queue_.push_back(std::move(p));
                metrics_.queue_depth.set(static_cast<i64>(queue_.size()));
            } else {
                ++stats_.rejected;
            }
        }
        if (!admitted) {
            metrics_.rejected.add();
            p.result.set_exception(std::make_exception_ptr(AdmissionRejected(
                "request rejected: serving queue at maxQueue=" +
                std::to_string(opts_.maxQueue))));
            return result;
        }
        arrived_.notify_all();
        return result;
    }

    ServerStats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mtx_);
        return stats_;
    }

    const ServerOptions &options() const { return opts_; }
    size_t maxBatch() const { return maxBatch_; }

  private:
    struct Pending
    {
        u64 tenant = 0;
        Request req;
        std::promise<Result> result;
        /** Submission timestamp (obs::detail::nowNs) feeding the
         *  queue-wait/latency histograms and the deadline policy. */
        u64 enqueuedNs = 0;
    };

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lk(mtx_);
        while (true) {
            arrived_.wait(lk, [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                return; // stopped and fully drained
            }
            auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(opts_.maxWaitUs);
            arrived_.wait_until(lk, deadline, [&] {
                return stop_ || queue_.size() >= maxBatch_;
            });
            auto end = queue_.begin() +
                       static_cast<std::ptrdiff_t>(
                           std::min(queue_.size(), maxBatch_));
            std::vector<Pending> work(std::make_move_iterator(queue_.begin()),
                                      std::make_move_iterator(end));
            queue_.erase(queue_.begin(), end);
            metrics_.queue_depth.set(static_cast<i64>(queue_.size()));
            lk.unlock();

            shedStale(work);
            std::stable_sort(work.begin(), work.end(),
                             [](const Pending &a, const Pending &b) {
                                 return a.tenant < b.tenant;
                             });
            size_t begin = 0;
            for (size_t i = 1; i <= work.size(); ++i) {
                if (i == work.size() ||
                    work[i].tenant != work[begin].tenant) {
                    executeGroup(work, begin, i);
                    begin = i;
                }
            }
            lk.lock();
        }
    }

    /** Fail every request of @p work that already waited past the
     *  deadline budget; running it would only make it later. */
    void
    shedStale(std::vector<Pending> &work)
    {
        if (opts_.deadlineUs == 0) {
            return;
        }
        u64 now = obs::detail::nowNs();
        u64 budgetNs = opts_.deadlineUs * 1000;
        auto stale = std::stable_partition(
            work.begin(), work.end(), [&](const Pending &p) {
                return now - p.enqueuedNs <= budgetNs;
            });
        u64 shed = static_cast<u64>(work.end() - stale);
        if (shed == 0) {
            return;
        }
        metrics_.shed.add(shed);
        {
            std::lock_guard<std::mutex> lk(mtx_);
            stats_.shed += shed;
        }
        for (auto it = stale; it != work.end(); ++it) {
            it->result.set_exception(std::make_exception_ptr(
                DeadlineExceeded("request shed: queue wait exceeded "
                                 "deadlineUs=" +
                                 std::to_string(opts_.deadlineUs))));
        }
        work.erase(stale, work.end());
    }

    /** Execute one tenant's group work[begin, end) and resolve every
     *  one of its futures. */
    void
    executeGroup(std::vector<Pending> &work, size_t begin, size_t end)
    {
        size_t count = end - begin;
        metrics_.requests.add(count);
        metrics_.batches.add();
        metrics_.batch_size.observe(count);
        u64 start = obs::detail::nowNs();
        std::vector<const Request *> group;
        group.reserve(count);
        for (size_t i = begin; i < end; ++i) {
            metrics_.queue_wait_ns.observe(start - work[i].enqueuedNs);
            group.push_back(&work[i].req);
        }
        std::vector<Result> out;
        try {
            obs::TraceSpan span(spanName_, "runtime", track_, "requests",
                                count);
            out = exec_(work[begin].tenant, group);
            if (out.size() != count) {
                throw std::logic_error("executor returned " +
                                       std::to_string(out.size()) +
                                       " results for " +
                                       std::to_string(count) + " requests");
            }
        } catch (...) {
            std::exception_ptr err = std::current_exception();
            for (size_t i = begin; i < end; ++i) {
                work[i].result.set_exception(err);
            }
            return;
        }
        // Account before resolving: a client that has seen its future
        // resolve must also see these requests in stats().
        {
            std::lock_guard<std::mutex> lk(mtx_);
            stats_.requests += count;
            stats_.batches += 1;
            stats_.largestBatch = std::max<u64>(stats_.largestBatch, count);
        }
        for (size_t i = begin; i < end; ++i) {
            metrics_.request_latency_ns.observe(obs::detail::nowNs() -
                                                work[i].enqueuedNs);
            work[i].result.set_value(std::move(out[i - begin]));
        }
    }

    const ServerOptions opts_;
    const size_t maxBatch_;
    /** The label interned for the trace, which is written after the
     *  server is gone. */
    const char *const track_;
    const char *const spanName_;
    const Executor exec_;
    ServerMetrics metrics_;

    mutable std::mutex mtx_;
    std::condition_variable arrived_;
    std::deque<Pending> queue_;
    bool stop_ = false;
    ServerStats stats_;

    std::thread worker_; ///< last: it uses every member above
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_BATCHING_SERVER_H
