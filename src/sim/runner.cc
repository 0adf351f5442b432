#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "sim/journal.hh"
#include "workload/trace/trace_cache.hh"

namespace pri::sim
{

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

SimulationRunner::SimulationRunner(unsigned jobs)
    : nJobs(jobs == 0 ? defaultJobs() : jobs)
{
}

void
SimulationRunner::forEach(size_t n,
                          const std::function<void(size_t)> &fn) const
{
    if (n == 0)
        return;

    const unsigned workers = static_cast<unsigned>(
        std::min<size_t>(nJobs, n));
    if (workers <= 1) {
        // Exact serial semantics: no threads, no reordering, no
        // capture mode imposed on the caller's thread.
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            // Capture mode turns a panic()/fatal() inside fn into
            // an exception: the worker parks it and stops pulling
            // work instead of abort()/exit()ing under the feet of
            // its siblings, which keep draining the batch.
            ScopedErrorCapture capture;
            try {
                for (size_t i = next.fetch_add(1); i < n;
                     i = next.fetch_add(1)) {
                    fn(i);
                }
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    }
    for (auto &t : pool)
        t.join();
    // Pool fully drained; now surface the first captured failure on
    // the calling thread. Fatal/panic errors re-enter the normal
    // reporting path (which exits/aborts unless this thread is
    // itself capturing); everything else propagates as-is.
    for (auto &e : errors) {
        if (!e)
            continue;
        try {
            std::rethrow_exception(e);
        } catch (const FatalError &f) {
            fatal("{}", f.what());
        } catch (const PanicError &p) {
            fatal("{}", p.what());
        }
    }
}

SimulationRunner::Outcome
SimulationRunner::runOne(size_t index, const RunParams &params) const
{
    Outcome out;
    try {
        ScopedErrorCapture capture;
        out.result = simulate(params);
        if (journal != nullptr)
            journal->record(paramsHash(params), out.result);
        return out;
    } catch (const core::ProgressStallError &e) {
        out.stalled = true;
        out.error = e.what();
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }
    out.error = fmtStr("run {} ({}): {}", index, paramsSummary(params),
                       out.error);
    return out;
}

std::vector<SimulationRunner::Outcome>
SimulationRunner::runCaptured(const std::vector<RunParams> &batch) const
{
    // Journal hits are served here, on the calling thread: workers
    // only simulate, and a fully journaled batch starts none.
    std::vector<Outcome> out(batch.size());
    std::vector<size_t> pending;
    pending.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        if (journal != nullptr &&
            journal->lookup(paramsHash(batch[i]), out[i].result)) {
            out[i].fromJournal = true;
        } else {
            pending.push_back(i);
        }
    }
    // The sweep owns its workloads: whichever point of a (benchmark,
    // seed) finishes last, ok or not, drops its program and traces
    // from the cache (DESIGN.md §14). Journal hits build none.
    std::map<std::pair<std::string, uint64_t>, std::atomic<size_t>>
        left;
    std::vector<std::atomic<size_t> *> leftOf(pending.size());
    for (size_t k = 0; k < pending.size(); ++k) {
        const RunParams &p = batch[pending[k]];
        leftOf[k] = &left[{p.benchmark, p.seed}];
        ++*leftOf[k];
    }
    forEach(pending.size(), [&](size_t k) {
        const size_t i = pending[k];
        out[i] = runOne(i, batch[i]);
        if (--*leftOf[k] == 0) {
            workload::trace::TraceCache::global().release(
                batch[i].benchmark, batch[i].seed);
        }
    });
    return out;
}

std::string
SimulationRunner::describeFailures(const std::vector<Outcome> &outcomes)
{
    size_t failed = 0;
    for (const auto &o : outcomes)
        failed += o.ok() ? 0 : 1;
    if (failed == 0)
        return "";

    std::string table = fmtStr("{} of {} runs failed:\n", failed,
                               outcomes.size());
    for (const auto &o : outcomes) {
        if (o.ok())
            continue;
        // First line only: stall errors carry a multi-line flight-
        // recorder dump that belongs in the log, not the table.
        // The error itself already leads with "run <i> (<params>)".
        const std::string brief =
            o.error.substr(0, o.error.find('\n'));
        table += fmtStr("  [{}] {}\n",
                        o.stalled ? "stalled" : "failed", brief);
    }
    return table;
}

std::vector<RunResult>
SimulationRunner::run(const std::vector<RunParams> &batch) const
{
    auto outcomes = runCaptured(batch);
    std::vector<RunResult> results;
    results.reserve(outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok())
            fatal("simulation {}", outcomes[i].error);
        results.push_back(std::move(outcomes[i].result));
    }
    return results;
}

} // namespace pri::sim
