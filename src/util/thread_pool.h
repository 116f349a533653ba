/**
 * @file
 * Fixed-size worker thread pool over one mutex-guarded FIFO queue.
 *
 * The batch-parallel evaluation core (the cost-model backend batches
 * behind dse::DseEvaluator::evaluateBatch, Phase 1 training fan-out,
 * Phase 3 candidate mapping) runs on this pool, and so do the
 * concurrent campaigns of the campaign service, which share one pool.
 * The evaluator itself runs one batch at a time under its cache lock;
 * the parallelism is the fan-out of each batch across these workers.
 *
 * Every production submission comes from parallelFor(), which queues
 * at most threadCount() helper tasks per call and lets them (and the
 * caller) claim indices from one shared atomic counter. The counter
 * balances the load, so one queue behind one lock and one condition
 * variable is all the pool needs.
 *
 * Determinism contract: the pool executes tasks in an unspecified
 * order on unspecified workers; callers that need reproducible results
 * must make each task pure (output depends only on its input) and
 * commit results in submission order. parallelFor() helps with that:
 * it indexes tasks by position so results land in caller-owned slots.
 *
 * Shutdown ordering: shutdown() - or the destructor, which calls it -
 * first marks the pool stopping, then lets the workers finish every
 * task that was enqueued before the mark, then joins them. A submit()
 * that races with shutdown either wins (its task is enqueued before
 * the mark and will run) or loses, in which case it returns a ready
 * future holding ThreadPoolStopped instead of throwing. parallelFor()
 * relies on this: on a stopped pool its helpers are rejected and the
 * caller drains every index itself.
 *
 * Telemetry: when the global util::Telemetry is enabled the pool exports
 * a queue-depth gauge ("pool.queue_depth"), queue-wait and task-run
 * latency histograms ("pool.queue_wait_s", "pool.task_run_s"), a task
 * counter ("pool.tasks") and per-worker busy-time counters
 * ("pool.worker.N.busy_us") from which per-worker utilization can be
 * derived. With telemetry off (the default) none of this is touched.
 */

#ifndef AUTOPILOT_UTIL_THREAD_POOL_H
#define AUTOPILOT_UTIL_THREAD_POOL_H

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

/** Fixed worker threads pulling from one shared FIFO queue. */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers. A count of 0 falls back to
     * std::thread::hardware_concurrency() (minimum 1). When a worker
     * cannot start, the ones that did are joined before the
     * std::system_error propagates.
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

    /**
     * Enqueue a callable; the future resolves with its result (or
     * exception). Safe to call from any thread, including pool workers
     * submitting follow-up work - but a worker must never block on a
     * future of a task queued behind it (classic self-deadlock).
     *
     * During or after shutdown() the callable is not enqueued and the
     * returned future is immediately ready with ThreadPoolStopped.
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<Fn>(fn));
        std::future<Result> future = task->get_future();
        QueuedTask queued;
        queued.run = [task]() { (*task)(); };
        if (!enqueue(std::move(queued))) {
            std::promise<Result> rejected;
            rejected.set_exception(
                std::make_exception_ptr(ThreadPoolStopped()));
            return rejected.get_future();
        }
        return future;
    }

    /**
     * Run body(i) for every i in [0, count) across the pool and block
     * until all iterations finish. The calling thread participates, so a
     * pool of one worker still makes progress and the call is safe even
     * from within a pool task. Iterations are claimed one at a time from
     * one atomic counter, so uneven per-iteration cost load-balances.
     *
     * The first exception thrown by any iteration is rethrown on the
     * caller after all iterations complete or are abandoned.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

  private:
    /// One queue entry: the callable plus its enqueue timestamp (0 when
    /// telemetry was off at submit time, so the wait is not measured).
    struct QueuedTask
    {
        std::function<void()> run;
        std::int64_t enqueuedAtNs = 0;
    };

    /**
     * Push @p task and wake one worker. False when the pool is
     * stopping; the task was not enqueued.
     */
    bool enqueue(QueuedTask task);

    /// Per-worker cache of the pool's instrument handles, resolved
    /// once per MetricsRegistry generation so the per-task hot path
    /// skips the string-keyed registry lookups (each worker keeps one
    /// on its stack; never shared).
    struct WorkerMetrics;

    /** Run @p task; @p depth is the queue length left behind it. */
    void runTask(QueuedTask &task, std::size_t worker, std::size_t depth,
                 WorkerMetrics &cached);
    void workerLoop(std::size_t worker);

    std::mutex mutex;
    /// Signalled on every push and on shutdown.
    std::condition_variable wake;
    std::deque<QueuedTask> queue; ///< Guarded by mutex.
    bool stopping = false;        ///< Guarded by mutex.
    /// Guards the join in shutdown() so concurrent shutdown() calls
    /// (or shutdown() racing the destructor) join exactly once.
    std::mutex joinMutex;
    bool joined = false;
    std::vector<std::thread> workers;
};

/**
 * Convenience: run body(i) for i in [0, count) on @p pool, or serially on
 * the calling thread when @p pool is null (the single-threaded path used
 * whenever a component has no pool attached).
 */
void parallel_for(ThreadPool *pool, std::size_t count,
                  const std::function<void(std::size_t)> &body);

} // namespace autopilot::util

#endif // AUTOPILOT_UTIL_THREAD_POOL_H
