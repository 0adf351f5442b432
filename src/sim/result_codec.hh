/**
 * @file
 * The audited on-disk serialization of sweep results: one PRIJ3
 * line per completed RunResult, keyed by its paramsHash(). The
 * sweep journal (sim/journal.hh) is the only cache that stores
 * them; bench/perf digests and tests/test_sched_wakeup.cpp hash the
 * same lines, so the format is pinned byte for byte.
 *
 * A line is tab-separated and ends in a "." sentinel, so a torn
 * write (SIGKILL mid-append) fails validation and the loader skips
 * it. Doubles are written in hexfloat (%a) so they round-trip
 * bit-exactly; the stats report rides along with newlines/tabs
 * escaped.
 *
 * The parser is strict: it splits a line into exactly 25 views and
 * reads every number with std::from_chars, accepting only the digit
 * forms formatResultLine() writes — decimal without sign or leading
 * zero and in range (width must fit an unsigned), exactly 16
 * lowercase hex digits for the key and archSig, and %a hexfloats
 * or [-]inf/[-]nan with nothing after them. A corrupted line is a
 * miss that reruns, never a wrong cache hit.
 *
 * Changing the field list requires bumping the tag, which is the
 * version stamp that makes old journals miss cleanly, and updating
 * the pinned list below (tests/test_runner.cpp asserts it).
 */

#ifndef PRI_SIM_RESULT_CODEC_HH
#define PRI_SIM_RESULT_CODEC_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/simulation.hh"

namespace pri::sim::codec
{

/** Result-line format tag; bump when the RunResult field list
 *  changes (invalidates existing journals cleanly). */
constexpr const char *kResultTag = "PRIJ3";

/** Result-line fields: tag, key, benchmark, scheme, width, 4 u64,
 *  13 doubles, archSig, report, "." sentinel. */
constexpr size_t kResultFields = 25;

/** The pinned PRIJ3 field list, in line order. A new RunResult
 *  field means: append here, bump kResultTag, extend the
 *  format/parse pair — the static_assert and the field-list unit
 *  test force all four to move together. */
constexpr const char *kResultFieldNames[] = {
    "tag", "paramsHash", "benchmark", "scheme", "width",
    "cycles", "insts", "committedTotal", "goldenChecked",
    "ipc", "avgIntOccupancy", "avgFpOccupancy",
    "lifeAllocToWrite", "lifeWriteToLastRead",
    "lifeLastReadToRelease", "branchMispredictRate", "dl1MissRate",
    "priEarlyFrees", "erEarlyFrees", "inlinedFrac",
    "portStallsPerKInst", "portInlineBypassFrac", "archSig",
    "report", "sentinel",
};
static_assert(sizeof(kResultFieldNames) / sizeof(const char *) ==
                  kResultFields,
              "PRIJ3 field list and field count must move together");

/** One PRIJ3 line (newline-terminated) for @p key / @p r. */
std::string formatResultLine(uint64_t key, const RunResult &r);

/**
 * Parse one PRIJ3 line (one trailing newline is tolerated). Returns
 * false (leaving @p key / @p r untouched garbage) for anything
 * malformed — most importantly the torn final line of a file whose
 * writer was SIGKILLed mid-write.
 */
bool parseResultLine(std::string_view line, uint64_t &key,
                     RunResult &r);

/**
 * Validate @p line exactly as parseResultLine() does and return its
 * key, without building the RunResult (the report is not
 * unescaped). The journal indexes lines with this when it opens and
 * parses a line in full only when it is looked up.
 */
bool validateResultLine(std::string_view line, uint64_t &key);

} // namespace pri::sim::codec

#endif // PRI_SIM_RESULT_CODEC_HH
