/**
 * @file
 * bulk_persist: a generated PM program that persists large values with
 * one fence per value, the shape of libpmem's pmem_memcpy_persist on a
 * mapped file. None of the Fig 8 programs issues more than a few
 * hundred flushes in one fence interval; here every interval holds
 * 64–4096, so the CLF-interval bookkeeping of the fence interval does
 * almost all the work.
 *
 * The values sit at the powers of two from 64 to 4096 lines, with a
 * small seeded jitter: the seed picks the order, the jitter and the
 * skipped lines, while every seed gets the same spread of sizes, so a
 * run's cost (dominated by the largest values) does not hinge on how
 * many large values the seed happened to draw.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <map>
#include <set>

#include "common/rng.hh"
#include "inprocess.hh"
#include "pmdk/pool.hh"

namespace perfbench
{
namespace
{

constexpr std::size_t lineBytes = 64;
/** One value per power of two from 64 to 4096 lines. */
constexpr int minLinesLog2 = 6;
constexpr int maxLinesLog2 = 12;
/** Seeded size jitter around each power of two, as a share. */
constexpr double sizeJitter = 0.02;
/** Values that leave exactly one line unflushed. */
constexpr std::size_t seededSkips = 2;
/** Values start past the pool's root slot. */
constexpr pmdb::Addr regionOffset = 4096;

struct Value
{
    std::size_t lines = 0;
    /** memcpy-then-flush-each-line; otherwise store+flush per line. */
    bool copyThenFlush = false;
    /** Line left unflushed, or lines when every line is flushed. */
    std::size_t skipLine = 0;
    pmdb::Addr base = 0;
};

std::vector<Value>
generate(std::uint64_t seed)
{
    pmdb::Rng rng(seed);
    std::vector<Value> values;
    for (int log2Lines = minLinesLog2; log2Lines <= maxLinesLog2;
         ++log2Lines) {
        const double jitter =
            1.0 + sizeJitter * (2.0 * rng.nextDouble() - 1.0);
        Value value;
        value.lines = std::clamp<std::size_t>(
            static_cast<std::size_t>(std::exp2(log2Lines) * jitter + 0.5),
            std::size_t(1) << minLinesLog2, std::size_t(1) << maxLinesLog2);
        // Shapes alternate with size, so the costly largest values do
        // not change shape from seed to seed.
        value.copyThenFlush = (log2Lines - minLinesLog2) % 2 == 0;
        values.push_back(value);
    }
    for (std::size_t i = values.size(); i > 1; --i)
        std::swap(values[i - 1], values[rng.nextBounded(i)]);

    const std::size_t count = values.size();
    std::set<std::size_t> skipped;
    while (skipped.size() < std::min(seededSkips, count))
        skipped.insert(rng.nextBounded(count));
    pmdb::Addr next = regionOffset;
    for (std::size_t i = 0; i < count; ++i) {
        Value &value = values[i];
        value.skipLine = skipped.count(i) ? rng.nextBounded(value.lines)
                                          : value.lines;
        value.base = next;
        next += value.lines * lineBytes;
    }
    return values;
}

void
persistValues(pmdb::PmRuntime &runtime, const std::vector<Value> &values)
{
    const Value &last = values.back();
    const std::size_t bytes = last.base + last.lines * lineBytes;
    // Room past the values for the pool's undo-log reservation.
    pmdb::PmemPool pool(runtime, bytes + (2u << 20), "bulk_persist.pool",
                        /*track_persistence=*/false);
    std::array<std::uint8_t, lineBytes> line{};
    for (std::size_t v = 0; v < values.size(); ++v) {
        const Value &value = values[v];
        runtime.appOp();
        line.fill(static_cast<std::uint8_t>(v));
        if (value.copyThenFlush) {
            for (std::size_t l = 0; l < value.lines; ++l)
                pool.writeBytes(value.base + l * lineBytes, line.data(),
                                lineBytes);
            for (std::size_t l = 0; l < value.lines; ++l) {
                if (l != value.skipLine)
                    pool.flush(value.base + l * lineBytes, lineBytes);
            }
        } else {
            for (std::size_t l = 0; l < value.lines; ++l) {
                pool.writeBytes(value.base + l * lineBytes, line.data(),
                                lineBytes);
                if (l != value.skipLine)
                    pool.flush(value.base + l * lineBytes, lineBytes);
            }
        }
        pool.fence();
    }
    runtime.programEnd();
}

/**
 * The seeded sites: each skipping value leaves one line never flushed,
 * and the reports (one per store the pool split the line into) must
 * cover exactly those lines.
 */
std::string
expectSeededSites(const std::vector<Value> &values,
                  const FingerprintSet &bugs)
{
    std::map<pmdb::Addr, pmdb::Addr> expected; // line → bytes
    for (const Value &value : values) {
        if (value.skipLine < value.lines)
            expected[value.base + value.skipLine * lineBytes] = lineBytes;
    }
    std::map<pmdb::Addr, pmdb::Addr> reported;
    for (const pmdb::BugFingerprint &fp : bugs) {
        const pmdb::Addr line = fp.start / lineBytes * lineBytes;
        if (fp.type != pmdb::BugType::NoDurability ||
            fp.end > line + lineBytes)
            return "unexpected report " + fp.toString();
        reported[line] += fp.end - fp.start;
    }
    if (reported != expected)
        return std::to_string(reported.size()) +
               " lines reported not durable, " +
               std::to_string(expected.size()) + " seeded, sets differ";
    return {};
}

Program
bulkProgram(std::uint64_t seed)
{
    auto values = std::make_shared<const std::vector<Value>>(generate(seed));
    Program program;
    program.name = "bulk";
    program.buggy = true;
    program.ops = values->size();
    program.run = [values](pmdb::PmRuntime &runtime) {
        persistValues(runtime, *values);
    };
    program.expect = [values](const FingerprintSet &bugs) {
        return expectSeededSites(*values, bugs);
    };
    return program;
}

} // namespace

void
runBulkPersist(const RunArgs &args, SpanLog &spans, Outcome &out)
{
    const std::vector<Program> pinned = {bulkProgram(1)};
    runInProcess(
        args,
        [&] {
            return std::vector<Program>{bulkProgram(args.seed)};
        },
        pinned, false, spans, out);
}

} // namespace perfbench
