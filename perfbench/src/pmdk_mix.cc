/**
 * @file
 * pmdk_mix: Fig 8 traffic checked in-process — clean b_tree and
 * hashmap_tx plus hashmap_atomic with a seeded missing entry flush.
 * It covers the array fast path (b_tree), the AVL tree (hashmap_tx)
 * and the bug-reporting path (one report per skipped flush); no fence
 * interval is long enough to make the CLF-interval scan matter.
 */

#include "common/rng.hh"
#include "inprocess.hh"

namespace perfbench
{
namespace
{

/** Operations per program run: one round of all three ≈ 50 ms. */
constexpr std::uint64_t btreeOps = 4000;
constexpr std::uint64_t hashmapTxOps = 4000;
constexpr std::uint64_t hashmapAtomicOps = 4000;
const char *const seededFault = "hmatomic_skip_entry_flush";

std::vector<Program>
mix(std::uint64_t seed, std::uint64_t scale_down)
{
    pmdb::Rng rng(seed);
    return {
        workloadProgram("b_tree", btreeOps / scale_down, rng.next()),
        workloadProgram("hashmap_tx", hashmapTxOps / scale_down,
                        rng.next()),
        workloadProgram("hashmap_atomic", hashmapAtomicOps / scale_down,
                        rng.next(), seededFault),
    };
}

} // namespace

void
runPmdkMix(const RunArgs &args, SpanLog &spans, Outcome &out)
{
    // The pinned verdicts: the same programs at a fixed seed, a quarter
    // of the size, independent of the run's seed.
    const std::vector<Program> pinned = mix(1, 4);
    runInProcess(
        args, [&] { return mix(args.seed, 1); }, pinned, true, spans, out);
}

} // namespace perfbench
