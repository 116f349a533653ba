/**
 * @file
 * Fixed-size worker thread pool with a sharded, work-stealing task
 * queue.
 *
 * The batch-parallel evaluation core (the cost-model backend batches
 * behind dse::DseEvaluator::evaluateBatch, Phase 1 training fan-out,
 * Phase 3 candidate mapping) runs on this pool, and since the campaign
 * service landed so do many concurrent campaigns sharing one pool. The
 * evaluator itself runs one batch at a time under its cache lock; the
 * parallelism is the fan-out of each batch across these workers.
 *
 * Each worker owns a deque: tasks submitted from a worker land on its
 * own deque (locality), external submissions round-robin across deques,
 * and a worker whose deque runs dry steals from its peers before
 * sleeping. Sleeping is per-worker too: each
 * worker parks on its own shard's condition variable and an enqueue
 * wakes the owner of the shard the task landed on (falling back to any
 * other parked worker), so a wake goes straight to a worker that can
 * pop without stealing and concurrent submissions never convoy on a
 * shared sleep lock. Under the one-queue design every submit, every
 * pop and every park crossed a single mutex; splitting all three per
 * worker is what the PR-3 `pool.queue_wait_s` numbers were collected
 * to justify.
 *
 * Determinism contract (unchanged from the single-queue pool): the pool
 * executes tasks in an unspecified order on unspecified workers;
 * callers that need reproducible results must make each task pure
 * (output depends only on its input) and commit results in submission
 * order. parallelFor() helps with that: it indexes tasks by position so
 * results land in caller-owned slots.
 *
 * Shutdown ordering (explicit, and relied on by the campaign service's
 * drain path): shutdown() - or the destructor, which calls it - first
 * marks the pool stopping, then lets the workers finish every task that
 * was enqueued before the mark, then joins them. A submit() that races
 * with shutdown either wins (its task is enqueued before the mark and
 * will run) or loses, in which case it returns a ready future holding
 * ThreadPoolStopped instead of throwing - an in-flight campaign sees a
 * failed evaluation it can diagnose, not a torn-down process.
 *
 * Telemetry: when the global util::Telemetry is enabled the pool exports
 * a queue-depth gauge ("pool.queue_depth", all shards combined),
 * queue-wait and task-run latency histograms ("pool.queue_wait_s",
 * "pool.task_run_s"), task and steal counters ("pool.tasks",
 * "pool.steals") and per-worker busy-time counters
 * ("pool.worker.N.busy_us") from which per-worker utilization can be
 * derived. With telemetry off (the default) none of this is touched.
 */

#ifndef AUTOPILOT_UTIL_THREAD_POOL_H
#define AUTOPILOT_UTIL_THREAD_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/telemetry.h"

namespace autopilot::util
{

/**
 * Single-use countdown latch: countDown() n times releases wait().
 *
 * (std::latch exists in C++20 but is missing from some libstdc++
 * configurations this project targets; this is the minimal subset.)
 */
class Latch
{
  public:
    /** @param count Number of countDown() calls that release wait(). */
    explicit Latch(std::ptrdiff_t count) : remaining(count) {}

    Latch(const Latch &) = delete;
    Latch &operator=(const Latch &) = delete;

    /** Decrement by @p n; reaching zero wakes all waiters. */
    void countDown(std::ptrdiff_t n = 1);

    /** Block until the count reaches zero. */
    void wait();

  private:
    std::mutex mutex;
    std::condition_variable cv;
    std::ptrdiff_t remaining;
};

/**
 * Carried by the future submit() returns when it lost the race with
 * shutdown(): the task was rejected and never ran.
 */
class ThreadPoolStopped : public std::runtime_error
{
  public:
    ThreadPoolStopped()
        : std::runtime_error("ThreadPool: submit after shutdown")
    {
    }
};

/** Fixed worker threads pulling from per-worker work-stealing deques. */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers. A count of 0 falls back to
     * std::thread::hardware_concurrency() (minimum 1).
     */
    explicit ThreadPool(std::size_t threads = 0);

    /** Calls shutdown(): pending tasks complete, then workers join. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t threadCount() const { return workers.size(); }

    /**
     * Stop accepting work, finish every already-enqueued task, join the
     * workers. Idempotent and safe to call concurrently with submit():
     * a racing submit either enqueued its task before the stop mark
     * (the task runs) or gets a ready ThreadPoolStopped future. After
     * shutdown() returns the pool is drained and submit() always
     * rejects.
     */
    void shutdown();

    /** True once shutdown() has begun; rejected submits follow. */
    bool stopped() const
    {
        return stopping.load(std::memory_order_acquire);
    }

    /**
     * Enqueue a callable; the future resolves with its result (or
     * exception). Safe to call from any thread, including pool workers
     * submitting follow-up work - but a worker must never block on a
     * future of a task queued behind it (classic self-deadlock).
     *
     * During or after shutdown() the callable is not enqueued and the
     * returned future is immediately ready with ThreadPoolStopped; a
     * daemon draining its pool therefore degrades racing submitters
     * instead of killing them with a throw.
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        if (stopping.load(std::memory_order_acquire))
            return rejectedFuture<Result>();
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<Fn>(fn));
        std::future<Result> future = task->get_future();
        QueuedTask queued;
        queued.run = [task]() { (*task)(); };
        if (!enqueue(std::move(queued)))
            return rejectedFuture<Result>();
        return future;
    }

    /**
     * Run body(i) for every i in [0, count) across the pool and block
     * until all iterations finish. The calling thread participates, so a
     * pool of one worker still makes progress and the call is safe even
     * from within a pool task. Iterations are claimed dynamically from
     * one atomic counter in chunks of @p grain consecutive indices, so
     * uneven per-iteration cost load-balances while cheap bodies
     * amortize the claim (one atomic RMW plus one latch count-down per
     * chunk instead of per index). grain = 1 (the default) maximizes
     * load balancing and is right for expensive bodies like
     * architectural simulation; pick a larger grain for short bodies
     * at high thread counts (0 is treated as 1).
     *
     * The first exception thrown by any iteration is rethrown on the
     * caller after all iterations complete or are abandoned.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body,
                     std::size_t grain = 1);

  private:
    /// One queue entry: the callable plus its enqueue timestamp (0 when
    /// telemetry was off at submit time, so the wait is not measured).
    struct QueuedTask
    {
        std::function<void()> run;
        std::int64_t enqueuedAtNs = 0;
    };

    /// One worker's deque with its lock, plus the owner's private
    /// parking spot. Owner and thieves share the mutex; sharding means
    /// they contend per worker, not pool-wide. Heap-allocated so the
    /// vector never moves a mutex.
    ///
    /// `size` mirrors tasks.size() (stores only happen under the
    /// mutex) so the steal sweep can skip empty shards without taking
    /// their locks. The owner parks on its own `cv` - there is no
    /// pool-wide sleep lock to convoy on - and `parked` is the wake
    /// handshake: an enqueue claims a sleeper with
    /// parked.exchange(false), so concurrent submissions wake distinct
    /// workers, and the parking worker re-checks the pool-wide
    /// `pending` count after publishing parked=true (both seq_cst, a
    /// Dekker pair with enqueue's publish-then-claim) so a push it
    /// raced with is never slept through. `poked` is the cv predicate
    /// for steal-wakes (task in another shard), set under the mutex.
    struct Shard
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<QueuedTask> tasks;
        std::atomic<std::size_t> size{0};
        std::atomic<bool> parked{false};
        bool poked = false;
    };

    /** steady_clock now in nanoseconds since its epoch. */
    static std::int64_t nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /** Ready future already holding ThreadPoolStopped. */
    template <typename Result>
    static std::future<Result> rejectedFuture()
    {
        std::promise<Result> promise;
        promise.set_exception(
            std::make_exception_ptr(ThreadPoolStopped()));
        return promise.get_future();
    }

    /**
     * Push onto the submitting worker's own shard (or round-robin for
     * external threads) and wake a sleeper. False when the push lost
     * the race with shutdown(); the task was not enqueued.
     */
    bool enqueue(QueuedTask task);

    /**
     * Pop from @p self's shard, stealing from the other shards when it
     * is empty. @p stolen reports whether the task came from a steal.
     */
    bool tryAcquire(std::size_t self, QueuedTask &task, bool &stolen);

    /**
     * Wake one parked worker, preferring the owner of shard
     * @p preferred (where the task was just pushed). Claims the
     * sleeper via parked.exchange so concurrent submissions each wake
     * a different worker. No-op when nobody is parked.
     */
    void wakeOne(std::size_t preferred);

    /// Per-worker cache of the pool's instrument handles, resolved
    /// once per MetricsRegistry generation so the per-task hot path
    /// skips the string-keyed registry lookups (each worker keeps one
    /// on its stack; never shared).
    struct WorkerMetrics;

    void runTask(QueuedTask &task, std::size_t worker, bool stolen,
                 WorkerMetrics &cached);
    void workerLoop(std::size_t worker);

    std::vector<std::thread> workers;
    std::vector<std::unique_ptr<Shard>> shards;
    /// Tasks enqueued but not yet popped, pool-wide: the parking
    /// re-check (Dekker partner of Shard::parked) and the queue-depth
    /// gauge.
    std::atomic<std::size_t> pending{0};
    /// Round-robin cursor for submissions from non-worker threads.
    std::atomic<std::size_t> nextShard{0};
    std::atomic<bool> stopping{false};
    /// Guards the join in shutdown() so concurrent shutdown() calls
    /// (or shutdown() racing the destructor) join exactly once.
    std::mutex joinMutex;
    bool joined = false;
};

/**
 * Convenience: run body(i) for i in [0, count) on @p pool, or serially on
 * the calling thread when @p pool is null (the single-threaded path used
 * whenever a component has no pool attached). @p grain is the chunked
 * claiming granularity forwarded to ThreadPool::parallelFor (ignored on
 * the serial path, which is naturally one chunk).
 */
void parallel_for(ThreadPool *pool, std::size_t count,
                  const std::function<void(std::size_t)> &body,
                  std::size_t grain = 1);

} // namespace autopilot::util

#endif // AUTOPILOT_UTIL_THREAD_POOL_H
