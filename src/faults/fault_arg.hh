/**
 * @file
 * One shared parser for every `--inject-fault` flavour.
 *
 * This helper owns the grammar for the legacy planted-bug kinds and
 * the declarative FaultSpec form, so the CLI, tests, and campaigns
 * agree on one syntax and one error message listing the valid
 * kinds.
 *
 * Grammar (one argument):
 *   wedge | wrong-path | stale-gidx | port-overgrant   legacy bugs
 *   SITE:MUT:TRIG=N[:seed=S]                           FaultSpec
 * either of which may end in `@POINT` to restrict the fault to one
 * sweep point. SITE is prf|map|freelist|wake|ckpt|lsq, MUT is
 * flip|stale|zero, TRIG is cycle|access|draw.
 */

#ifndef PRI_FAULTS_FAULT_ARG_HH
#define PRI_FAULTS_FAULT_ARG_HH

#include <string>

#include "core/config.hh"
#include "faults/fault_spec.hh"

namespace pri::faults
{

/** Decoded `--inject-fault` argument (exactly one form is set). */
struct FaultArg
{
    /** Legacy planted bug (None if another form matched). */
    core::InjectedFault legacy = core::InjectedFault::None;
    /** Declarative transient fault (disabled if another form). */
    FaultSpec spec;
    /** Sweep point restriction (`@POINT`); -1 = every point. */
    long point = -1;
};

/**
 * Parse @p text into @p out. Returns false with a one-line
 * diagnostic in @p err (listing every valid kind) on bad input.
 */
bool parseFaultArg(const std::string &text, FaultArg &out,
                   std::string &err);

/** Render a FaultSpec in the grammar above (parse round-trips). */
std::string formatFaultSpec(const FaultSpec &spec);

} // namespace pri::faults

#endif // PRI_FAULTS_FAULT_ARG_HH
