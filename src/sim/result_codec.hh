/**
 * @file
 * The audited on-disk / on-wire serialization of sweep results and
 * sweep requests — ONE implementation shared by every cache that is
 * keyed by paramsHash().
 *
 * Two record kinds, both single-line, tab-separated, ending in a
 * "." sentinel so a torn write (SIGKILL mid-append, partial rename)
 * fails validation and is simply skipped by loaders:
 *
 *  - Result lines (tag PRIJ3): one completed RunResult keyed by its
 *    paramsHash. Doubles are written in hexfloat (%a) so they
 *    round-trip bit-exactly; the stats report rides along with
 *    newlines/tabs escaped. Used by the sweep journal
 *    (src/sim/journal.cc) and the pri_sweepd content-addressed
 *    result store (src/sweepd/store.cc). Because both caches parse
 *    and format through these functions, they can never skew: a
 *    record written by one is bit-identical when served by the
 *    other.
 *
 *  - Params lines (tag PRIP3): one RunParams request, carrying
 *    EXACTLY the fields paramsHash() digests — no more, no fewer.
 *    This is the pri_sweepd submit format: a daemon that re-derives
 *    paramsHash from a parsed params line is guaranteed to compute
 *    the key the client used, because fields outside the audited
 *    list (attempt, watchdog shape, timeoutMs, observation knobs)
 *    are not even representable on the wire.
 *
 * Changing either field list requires bumping the tag — that is the
 * version stamp the stores key their invalidation on — and updating
 * the pinned lists below (tests/test_sweepd.cpp asserts them).
 */

#ifndef PRI_SIM_RESULT_CODEC_HH
#define PRI_SIM_RESULT_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hh"

namespace pri::sim::codec
{

/** Result-line format tag; bump when the RunResult field list
 *  changes (invalidates journals and sweepd stores cleanly). */
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

/** Params-line format tag; bump when the paramsHash() audited
 *  field list changes. */
constexpr const char *kParamsTag = "PRIP3";

/** Params-line fields: tag, the 19 hashed RunParams fields, "." */
constexpr size_t kParamsFields = 21;

/** The pinned PRIP3 field list — exactly paramsHash()'s digest
 *  order (see simulation.cc). */
constexpr const char *kParamsFieldNames[] = {
    "tag", "benchmark", "width", "scheme", "physRegs",
    "warmupInsts", "measureInsts", "seed", "checkGolden",
    "schedSizeOverride", "narrowBitsOverride", "injectFault",
    "injectFreeWithoutInline", "prfReadPorts", "cycleBudget",
    "faultSite", "faultMutation", "faultTrigger", "faultTriggerArg",
    "faultSeed", "sentinel",
};
static_assert(sizeof(kParamsFieldNames) / sizeof(const char *) ==
                  kParamsFields,
              "PRIP3 field list and field count must move together");

/** Escape tabs/newlines/backslashes so a report is one field. */
std::string escape(const std::string &s);
std::string unescape(const std::string &s);

/** Split @p line on tabs (no unescaping; fields are raw). */
std::vector<std::string> splitTabs(const std::string &line);

/** One PRIJ3 line (newline-terminated) for @p key / @p r. */
std::string formatResultLine(uint64_t key, const RunResult &r);

/**
 * Parse one PRIJ3 line. Returns false (leaving @p key / @p r
 * untouched garbage) for anything malformed — most importantly the
 * torn final line of a file whose writer was SIGKILLed mid-write.
 */
bool parseResultLine(const std::string &line, uint64_t &key,
                     RunResult &r);

/** One PRIP3 line (newline-terminated) for @p p: the audited
 *  (hash-visible) fields only. */
std::string formatParamsLine(const RunParams &p);

/**
 * Parse one PRIP3 line into @p p (every non-audited field keeps the
 * value @p p arrived with, so callers can pre-load machine-local
 * policy like timeoutMs). Returns false on any malformed input.
 */
bool parseParamsLine(const std::string &line, RunParams &p);

} // namespace pri::sim::codec

#endif // PRI_SIM_RESULT_CODEC_HH
