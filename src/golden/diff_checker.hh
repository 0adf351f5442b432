/**
 * @file
 * Lockstep differential checker against the golden model.
 *
 * Installed as the core's retire-time observer, the checker advances
 * the in-order golden interpreter one instruction per commit and
 * compares everything architecturally visible: PC, operation class,
 * destination register, destination value (as read back through the
 * rename unit / PRF), effective address, and branch outcome. Every
 * `archCheckInterval` commits it additionally compares the full
 * architectural register file and runs the caller-supplied audit
 * hook (typically OutOfOrderCore::checkInvariants), so corruption
 * that does not immediately reach a destination value — e.g. a freed
 * register still named by the map — is caught within one window.
 *
 * On the first divergence the checker panics with a diagnostic
 * window: the last kWindowSize retired instructions from both models
 * and both architectural register files.
 */

#ifndef PRI_GOLDEN_DIFF_CHECKER_HH
#define PRI_GOLDEN_DIFF_CHECKER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/core.hh"
#include "golden/golden_model.hh"

namespace pri::golden
{

/**
 * Prefix of every divergence panic the checker raises. The fault-
 * campaign classifier keys on this exact string to separate
 * "corruption the golden model caught" from any other crash, so the
 * panics below and the classifier must never drift apart.
 */
inline constexpr const char *kDivergenceMarker = "golden divergence";

/** Retire-time lockstep comparator core-vs-golden. */
class DiffChecker : public core::CommitObserver
{
  public:
    struct Options
    {
        /** Commits between full register-file compares + audits. */
        unsigned archCheckInterval = 64;
    };

    /** Retired instructions kept for the divergence report. */
    static constexpr unsigned kWindowSize = 32;

    explicit DiffChecker(const workload::SyntheticProgram &program);
    DiffChecker(const workload::SyntheticProgram &program,
                Options options);

    /** Install an extra audit run at every register-file check
     *  (e.g. [&cpu] { cpu.checkInvariants(); }). */
    void setAuditHook(std::function<void()> hook);

    void onCommit(const core::CommitRecord &rec) override;

    /**
     * Final register-file compare, regardless of interval phase.
     * Call once after the run completes.
     */
    void finishRun();

    /** Committed instructions verified so far. */
    uint64_t checkedCommits() const { return model.committed(); }

    const GoldenModel &goldenModel() const { return model; }

  private:
    /** One core/golden pair retained for the diagnostic window. */
    struct WindowEntry
    {
        core::CommitRecord core;
        GoldenInst golden;
    };

    [[noreturn]] void diverge(const char *what,
                              const core::CommitRecord &rec,
                              const GoldenInst &g) const;
    void compareArchFiles() const;
    std::string diagnosticWindow() const;

    GoldenModel model;
    Options opt;
    /** Committed architectural file mirrored from commit records. */
    std::array<uint64_t, 2 * isa::kNumLogicalRegs> mirror{};
    std::vector<WindowEntry> window;
    size_t windowPos = 0;
    std::function<void()> audit;
};

} // namespace pri::golden

#endif // PRI_GOLDEN_DIFF_CHECKER_HH
