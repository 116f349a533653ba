#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <latch>

namespace autopilot::util
{

namespace
{

/** steady_clock now in nanoseconds since its epoch. */
std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers.reserve(threads);
    try {
        for (std::size_t i = 0; i < threads; ++i)
            workers.emplace_back([this, i] { workerLoop(i); });
    } catch (...) {
        // A thread that could not start must not leave the ones that
        // did joinable: destroying a joinable std::thread terminates.
        shutdown();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::shutdown()
{
    // Setting the mark under the queue lock orders it against every
    // enqueue: a push either completed before it (the drain below runs
    // the task) or sees the mark and rejects.
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wake.notify_all();
    std::lock_guard<std::mutex> lock(joinMutex);
    if (joined)
        return;
    joined = true;
    for (std::thread &worker : workers)
        worker.join();
}

bool
ThreadPool::enqueue(QueuedTask task)
{
    if (Telemetry::instance().enabled())
        task.enqueuedAtNs = nowNs();
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (stopping)
            return false;
        queue.push_back(std::move(task));
    }
    wake.notify_one();
    return true;
}

struct ThreadPool::WorkerMetrics
{
    /// Registry generation the handles were resolved under; anything
    /// else (including the initial sentinel) forces a re-resolve.
    std::uint64_t generation = ~std::uint64_t{0};
    Gauge *depth = nullptr;
    Histogram *queueWait = nullptr;
    Histogram *taskRun = nullptr;
    Counter *tasks = nullptr;
    Counter *busy = nullptr;
};

void
ThreadPool::runTask(QueuedTask &task, std::size_t worker,
                    std::size_t depth, WorkerMetrics &cached)
{
    Telemetry &telemetry = Telemetry::instance();
    if (!telemetry.enabled()) {
        task.run();
        return;
    }

    // Resolve the string-keyed instruments once per registry
    // generation, not once per task: on a busy pool the lookups (and
    // the per-worker name concatenation) otherwise dominate the
    // telemetry cost and stretch every queue-wait sample behind them.
    MetricsRegistry &metrics = telemetry.metrics();
    // Snapshot the generation BEFORE resolving: a clear() racing the
    // resolves then leaves a stale generation behind and the next task
    // re-resolves, instead of stamping fresh handles with a generation
    // they were not resolved under.
    const std::uint64_t generation = metrics.generation();
    if (cached.generation != generation) {
        cached.depth = &metrics.gauge("pool.queue_depth");
        cached.queueWait = &metrics.histogram("pool.queue_wait_s");
        cached.taskRun = &metrics.histogram("pool.task_run_s");
        cached.tasks = &metrics.counter("pool.tasks");
        cached.busy = &metrics.counter(
            "pool.worker." + std::to_string(worker) + ".busy_us");
        cached.generation = generation;
    }
    cached.depth->set(static_cast<std::int64_t>(depth));
    const std::int64_t started_ns = nowNs();
    if (task.enqueuedAtNs != 0) {
        cached.queueWait->record(
            static_cast<double>(started_ns - task.enqueuedAtNs) * 1e-9);
    }
    task.run(); // packaged_task: exceptions land in the future.
    const std::int64_t busy_ns = nowNs() - started_ns;
    cached.taskRun->record(static_cast<double>(busy_ns) * 1e-9);
    cached.tasks->add();
    cached.busy->add(static_cast<std::uint64_t>(busy_ns / 1000));
}

void
ThreadPool::workerLoop(std::size_t worker)
{
    WorkerMetrics cached; // This worker's instrument handles.
    for (;;) {
        QueuedTask task;
        std::size_t depth = 0;
        {
            std::unique_lock<std::mutex> lock(mutex);
            wake.wait(lock,
                      [this] { return stopping || !queue.empty(); });
            // Once stopping, no push can land, so empty means drained.
            if (queue.empty())
                return;
            task = std::move(queue.front());
            queue.pop_front();
            depth = queue.size();
        }
        runTask(task, worker, depth, cached);
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;

    // Shared claim counter + completion latch + first-error slot.
    // Helpers (one per worker, capped at count - 1) and the caller all
    // drain the same counter, so the caller always makes progress even
    // when every worker is busy with unrelated tasks. The caller waits
    // on the latch, NOT on the helper tasks: a helper that never gets
    // scheduled (e.g. nested parallelFor from a worker, or a rejected
    // submit during pool shutdown) is harmless - once all iterations
    // are claimed it would exit without touching caller state, so no
    // self-deadlock is possible.
    struct State
    {
        explicit State(std::ptrdiff_t n) : done(n) {}
        std::atomic<std::size_t> next{0};
        std::latch done;
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::mutex errorMutex;
    };
    auto state =
        std::make_shared<State>(static_cast<std::ptrdiff_t>(count));

    auto drain = [state, count, &body]() {
        for (;;) {
            const std::size_t i =
                state->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            // Iterations abandoned after a failure still count down:
            // they were claimed.
            if (!state->failed.load(std::memory_order_relaxed)) {
                try {
                    body(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(state->errorMutex);
                    if (!state->error)
                        state->error = std::current_exception();
                    state->failed.store(true,
                                        std::memory_order_relaxed);
                }
            }
            state->done.count_down();
        }
    };

    const std::size_t helpers = std::min(workers.size(), count - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        submit(drain);

    drain(); // Caller participates.
    state->done.wait();

    if (state->error)
        std::rethrow_exception(state->error);
}

void
parallel_for(ThreadPool *pool, std::size_t count,
             const std::function<void(std::size_t)> &body)
{
    if (pool != nullptr) {
        pool->parallelFor(count, body);
        return;
    }
    for (std::size_t i = 0; i < count; ++i)
        body(i);
}

} // namespace autopilot::util
