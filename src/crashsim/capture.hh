/**
 * @file
 * Live crash-point capture: a PersistenceObserver that builds a
 * CrashPointLog while a workload runs.
 *
 * The session snapshots the device's durable image once at adoption
 * (the baseline) and from then on mirrors the pending-writeback queue
 * incrementally from the device's onLineQueued()/onBoundary()
 * callbacks — O(1) per CLF-touched line, never O(pool size). The
 * device is a synchronous sink, so the log sees every event inline,
 * whatever other sinks batch.
 *
 * The log is self-contained: exploration (explore.hh) runs after the
 * pool, device and runtime are destroyed. Verifiers registered here
 * must therefore capture everything they need by value (addresses,
 * log-region offsets), never pointers into the pool.
 */

#ifndef PMDB_CRASHSIM_CAPTURE_HH
#define PMDB_CRASHSIM_CAPTURE_HH

#include <map>

#include "core/cross_failure.hh"
#include "crashsim/crash_points.hh"
#include "crashsim/explore.hh"
#include "pmem/device.hh"

namespace pmdb
{

/**
 * One capture-and-explore session over one device.
 *
 * Usage:
 * @code
 *   CrashsimSession session(options);
 *   session.adopt(pool.device(), verifier);  // before the writes
 *   ... run the workload ...
 *   CrashsimResult result = session.explore(&debugger);
 * @endcode
 *
 * The session must outlive the device (the device signals its
 * destruction, after which the log stays usable).
 */
class CrashsimSession : public PersistenceObserver
{
  public:
    explicit CrashsimSession(CrashsimOptions options = {})
        : options_(options)
    {
    }

    ~CrashsimSession() override { release(); }

    CrashsimSession(const CrashsimSession &) = delete;
    CrashsimSession &operator=(const CrashsimSession &) = delete;

    /**
     * Begin capturing crash points from @p device: snapshot the
     * durable baseline, seed the pending mirror, and install this
     * session as the device's persistence observer.
     */
    void adopt(const PmemDevice &device);

    /** adopt() and register the recovery verifier in one call. */
    void adopt(const PmemDevice &device,
               CrossFailureChecker::Verifier verify);

    /** Stop observing the device (idempotent). */
    void release();

    void setVerifier(CrossFailureChecker::Verifier verify)
    {
        verify_ = std::move(verify);
    }

    bool hasVerifier() const { return static_cast<bool>(verify_); }

    const CrossFailureChecker::Verifier &verifier() const
    {
        return verify_;
    }

    const CrashsimOptions &options() const { return options_; }
    CrashsimOptions &options() { return options_; }

    const CrashPointLog &log() const { return log_; }

    /**
     * Explore the captured crash points with the registered verifier
     * (exploreCrashPoints). Findings are reported through @p debugger
     * when given.
     */
    CrashsimResult explore(PmDebugger *debugger = nullptr) const;

    /** @name PersistenceObserver */
    /** @{ */
    void onLineQueued(std::uint64_t line,
                      const PendingLine &snapshot) override;
    void onBoundary(const Event &event, int epoch_depth) override;
    void onDeviceDestroyed() override { device_ = nullptr; }
    /** @} */

  private:
    void recordPoint(const Event &event, bool epoch_open, bool drains);

    CrashsimOptions options_;
    const PmemDevice *device_ = nullptr;
    CrossFailureChecker::Verifier verify_;
    CrashPointLog log_;
    /** Mirror of the device's pending queue, ordered by line index. */
    std::map<std::uint64_t, CapturedLine> pending_;
};

} // namespace pmdb

#endif // PMDB_CRASHSIM_CAPTURE_HH
