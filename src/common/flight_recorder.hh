/**
 * @file
 * Flight recorder: a fixed-size, allocation-free ring of recent
 * pipeline events kept per simulation thread, for post-mortem
 * forensics.
 *
 * The core appends one record per fetch/rename/issue/replay/commit/
 * squash as it simulates; the ring keeps only the most recent
 * kCapacity records, so steady-state cost is one 32-byte store and
 * an increment per event and memory use is constant. When anything
 * dies — panic(), a failed PRI_ASSERT, a fatal signal caught by the
 * crash handler in logging.cc, a golden-model divergence, or a
 * watchdog ProgressStall — the last K events plus the active run
 * context (a one-line RunParams summary installed by simulate())
 * are dumped alongside the error, so a wedged or crashed simulation
 * point is diagnosable without a rerun.
 *
 * Every record lives in thread-local storage: each worker thread of
 * a sweep owns exactly one recorder, appends are wait-free by
 * construction (no sharing, no locks), and the crash handler — which
 * runs on the faulting thread — reads only its own thread's ring.
 * dumpTo() formats with a local integer printer and write(2) so it
 * is safe to call from a signal handler.
 */

#ifndef PRI_COMMON_FLIGHT_RECORDER_HH
#define PRI_COMMON_FLIGHT_RECORDER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace pri
{

/** Pipeline event classes the recorder distinguishes. */
enum class FlightEvent : uint8_t
{
    Fetch,   ///< instruction fetched (arg = predTaken for branches)
    Rename,  ///< renamed/dispatched (arg = dest preg or ~0)
    Issue,   ///< selected for execution (arg = dest preg or ~0)
    Replay,  ///< latency mispredict, selectively replayed
    Commit,  ///< architecturally committed (arg = dest preg or ~0)
    Squash,  ///< misprediction recovery (arg = entries squashed)
    Note,    ///< free-form marker (watchdog audits etc.)
};

/** Short display tag for one event kind. */
const char *flightEventName(FlightEvent ev);

/** Fixed-size ring of recent pipeline events (one per thread). */
class FlightRecorder
{
  public:
    /** Ring capacity; dump() reports at most the last kCapacity. */
    static constexpr size_t kCapacity = 256;

    /** One recorded event; preg-sized arg doubles as a detail slot
     *  (squash length, branch direction) per FlightEvent. */
    struct Record
    {
        uint64_t cycle = 0;
        uint64_t pc = 0;
        uint64_t gidx = 0; ///< dynamic instruction index (wi.seq)
        uint32_t arg = 0;  ///< dest preg / squash count / detail
        FlightEvent ev = FlightEvent::Note;
    };

    /** Append one event (constant time, never allocates). */
    void
    record(FlightEvent ev, uint64_t cycle, uint64_t pc,
           uint64_t gidx, uint32_t arg)
    {
        Record &r = ring[head & (kCapacity - 1)];
        r.cycle = cycle;
        r.pc = pc;
        r.gidx = gidx;
        r.arg = arg;
        r.ev = ev;
        ++head;
    }

    /** Total events ever recorded (ring keeps the last kCapacity). */
    uint64_t eventsRecorded() const { return head; }

    bool empty() const { return head == 0; }

    /** Drop all events and the run context (start of a new run). */
    void clear();

    /**
     * Install the active run's one-line description (typically a
     * RunParams summary). Copied into a fixed buffer — no
     * allocation — and emitted at the top of every dump.
     */
    void setContext(const char *ctx);

    const char *context() const { return ctxBuf.data(); }

    /**
     * Human-readable trace of the last @p maxEvents events (oldest
     * first), headed by the run context. Allocates; not for signal
     * context — crash handlers use dumpTo().
     */
    std::string dump(size_t maxEvents = 64) const;

    /**
     * Async-signal-safe dump of the last @p maxEvents events to a
     * file descriptor: formats each line into a stack buffer with a
     * local integer printer and emits it via write(2).
     */
    void dumpTo(int fd, size_t maxEvents = 64) const;

  private:
    std::array<Record, kCapacity> ring{};
    uint64_t head = 0;
    std::array<char, 192> ctxBuf{};
};

/** This thread's recorder (created on first use). */
FlightRecorder &flightRecorder();

} // namespace pri

#endif // PRI_COMMON_FLIGHT_RECORDER_HH
