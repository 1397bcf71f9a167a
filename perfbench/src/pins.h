/**
 * @file
 * Pinned output digests at the default seed (workloads.h
 * kDefaultSeed), one per checked output and size. Every op's output
 * must reproduce its pin bit for bit; any perf change that moves one
 * changed what the program computes. Regenerate only for a change
 * that is meant to alter results: run the benchmark at the default
 * seed and copy the "digest" lines it prints.
 */

#pragma once

namespace perfbench {

struct Pin
{
    const char *key;
    const char *digest;
};

inline constexpr Pin kPins[] = {
    {"full/mix-moses.run_mix.0", "8c0e68259218c896"},
    {"full/mix-moses.run_mix.1", "0d7ae54ab5b7c9c4"},
    {"full/mix-moses.run_mix.2", "478c4e5b4b293fe1"},
    {"full/mix-moses.run_mix.3", "48a2a205cdbc64a6"},
    {"full/mix-moses.run_mix.4", "bad3c5cde14d2e17"},
    {"full/mix-moses.run_mix.5", "22c522c44d68d856"},
    {"full/mix-moses.run_mix.6", "5ef575f05f85ab87"},
    {"full/mix-moses.run_mix.7", "1a2442752066fb59"},
    {"full/sweep-cold.results", "d84dbbeb8508689a"},
    {"full/serve-warm.cold_pass", "4849dcda6a80275b"},
    {"full/cache.vantage_z4_52.state", "1d13009402947a90"},
    {"full/cache.lru_z4_52.state", "ccd7d27089dba05c"},
    {"tiny/mix-moses.run_mix.0", "128a4fbeee496e7d"},
    {"tiny/mix-moses.run_mix.1", "54506b34dd4c0aa8"},
    {"tiny/mix-moses.run_mix.2", "dbbb06296c6bbc7b"},
    {"tiny/mix-moses.run_mix.3", "e5efaf65adb4e4d1"},
    {"tiny/mix-moses.run_mix.4", "bced663c421f32a3"},
    {"tiny/mix-moses.run_mix.5", "127040b5daea2444"},
    {"tiny/mix-moses.run_mix.6", "6e4278bcb53c5f2a"},
    {"tiny/mix-moses.run_mix.7", "9c2693341c0c6beb"},
    {"tiny/sweep-cold.results", "4d777b88c8b0d021"},
    {"tiny/serve-warm.cold_pass", "4849dcda6a80275b"},
    {"tiny/cache.vantage_z4_52.state", "d48c1be1d7866f8f"},
    {"tiny/cache.lru_z4_52.state", "e2b490a0c9117374"},
};

} // namespace perfbench
