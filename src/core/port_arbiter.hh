/**
 * @file
 * PRF read-port arbiter for the register-read stages.
 *
 * Wide machines cannot afford 2*width read ports on the physical
 * register file (ports dominate RF area and delay; see
 * rename/prf_model.hh), so the select stage must arbitrate a finite
 * port budget. The policy modeled here is the classic age-ordered
 * greedy grant:
 *
 *  - Select already scans issue candidates oldest-first (ROB ring
 *    order), so callers naturally request in age order.
 *  - A request is all-or-nothing: an instruction needs every
 *    non-inlined source operand read in its RF stages, so it either
 *    receives all `need` ports or stays in the scheduler and retries
 *    next cycle (a structural port stall, counted by the core).
 *  - No reservation or carry-over: ports free up every cycle.
 *
 * Starvation is bounded by construction: the oldest ready requester
 * is always granted, because it is scanned first against the full
 * budget and the core validates budget >= the largest per-op need
 * (2 sources). Every denial therefore strictly ages the loser toward
 * the front of the scan, where it cannot lose again — the property
 * tests/test_port_arbiter.cpp checks against a naive reference.
 *
 * PRI's interaction — the reason this knob exists — is that inlined
 * operands are immediates in the map/payload and never touch the
 * PRF, so under PRI an instruction's `need` shrinks and the same
 * port budget serves more issues (paper §1's pressure argument
 * applied to ports, after Los, arXiv:2502.00147).
 *
 * A budget of 0 means unlimited: request() always grants and the
 * core skips arbitration entirely, keeping unlimited configurations
 * byte-identical to the pre-port-model simulator.
 */

#ifndef PRI_CORE_PORT_ARBITER_HH
#define PRI_CORE_PORT_ARBITER_HH

namespace pri::core
{

/** Per-cycle, age-ordered, all-or-nothing read-port arbiter. */
class ReadPortArbiter
{
  public:
    /** @p ports per cycle; 0 = unlimited (always grants). */
    explicit ReadPortArbiter(unsigned ports = 0)
        : budget_(ports), left_(ports)
    {
    }

    /** Start a new cycle: the full budget becomes available. */
    void
    beginCycle()
    {
        left_ = budget_;
        deniedThisCycle_ = false;
    }

    /**
     * Request @p need ports for one instruction (callers iterate in
     * age order). Grants all of them or none.
     * @return true when granted; false when fewer than @p need
     *         ports remain this cycle (the instruction must retry).
     */
    bool
    request(unsigned need)
    {
        // Unlimited arbiters and fully-inlined (zero-need) ops
        // always issue.
        if (budget_ != 0 && need != 0) {
            if (need > left_) {
                deniedThisCycle_ = true;
                return false;
            }
            left_ -= need;
        }
        return true;
    }

    /**
     * Grant a denied request anyway, exhausting the budget — the
     * planted InjectedFault::PortOverGrant bug (an arbiter off-by-one
     * that drives more reads than the array has bitlines). Tests
     * only.
     */
    void overGrant() { left_ = 0; }

    /** Ports still grantable this cycle (unlimited: ~0u). */
    unsigned
    remaining() const
    {
        return budget_ == 0 ? ~0u : left_;
    }

    /** Any denial since beginCycle()? (One stall-cycle stat tick.) */
    bool deniedThisCycle() const { return deniedThisCycle_; }

  private:
    unsigned budget_;
    unsigned left_;
    bool deniedThisCycle_ = false;
};

} // namespace pri::core

#endif // PRI_CORE_PORT_ARBITER_HH
