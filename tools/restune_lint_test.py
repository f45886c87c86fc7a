#!/usr/bin/env python3
"""Self-test for restune_lint.py against small fixture snippets.

Runs under pytest (`pytest tools/restune_lint_test.py`) or standalone
(`python3 tools/restune_lint_test.py`); the standalone runner executes every
`test_*` function and reports pass/fail, so CI does not need pytest.

Each test materializes a miniature repo layout in a temp directory and runs
the real `run_lint` entry point over it, asserting on (rule, line) pairs —
the same code path the CLI uses, so the fixtures double as documentation of
what each rule does and does not flag.
"""

import os
import sys
import tempfile
import textwrap

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import restune_lint  # noqa: E402


class FixtureTree:
    """Temp directory that mimics the repo layout for run_lint."""

    def __init__(self):
        self._dir = tempfile.TemporaryDirectory(prefix="restune_lint_test_")
        self.root = self._dir.name

    def write(self, relpath, content):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(content))
        return path

    def lint(self, *subdirs, allowlist=None):
        paths = [os.path.join(self.root, d) for d in (subdirs or ("src",))]
        findings = restune_lint.run_lint(paths, self.root, allowlist)
        return [(f.rule, f.line, f.path) for f in findings]

    def cleanup(self):
        self._dir.cleanup()


GUARDED = """\
#ifndef RESTUNE_{token}_H_
#define RESTUNE_{token}_H_
{body}
#endif  // RESTUNE_{token}_H_
"""


def guarded(token, body=""):
    return GUARDED.format(token=token, body=body)


def rules_of(findings):
    return sorted({rule for rule, _line, _path in findings})


def test_clean_file_has_no_findings():
    t = FixtureTree()
    try:
        t.write("src/gp/clean.h", guarded("GP_CLEAN", """\

            namespace restune {
            inline double Twice(double x) { return 2.0 * x; }
            }  // namespace restune
            """))
        assert t.lint() == []
    finally:
        t.cleanup()


def test_rng_discipline_flags_adhoc_randomness():
    t = FixtureTree()
    try:
        t.write("src/bo/sampler.cc", """\
            #include <cstdlib>
            int Draw() {
              return rand();
            }
            unsigned Seed() {
              std::random_device rd;
              return rd() + time(nullptr);
            }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["rng-discipline"]
        assert [line for _r, line, _p in findings] == [3, 6, 7]
    finally:
        t.cleanup()


def test_rng_discipline_exempts_common_rng():
    t = FixtureTree()
    try:
        t.write("src/common/rng.cc", """\
            unsigned Seed() {
              std::random_device rd;
              return rd();
            }
            """)
        assert t.lint() == []
    finally:
        t.cleanup()


def test_naked_new_and_delete_are_flagged():
    t = FixtureTree()
    try:
        t.write("src/tuner/owner.cc", """\
            struct T {};
            T* Make() { return new T(); }
            void Free(T* t) { delete t; }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["naked-new"]
        assert len(findings) == 2
    finally:
        t.cleanup()


def test_make_unique_and_deleted_members_are_not_flagged():
    t = FixtureTree()
    try:
        t.write("src/tuner/ok.cc", """\
            #include <memory>
            struct T {
              T(const T&) = delete;
              T& operator=(const T&) = delete;
            };
            std::unique_ptr<int> Make() { return std::make_unique<int>(3); }
            """)
        assert t.lint() == []
    finally:
        t.cleanup()


def test_raw_thread_flagged_outside_thread_pool():
    t = FixtureTree()
    try:
        t.write("src/service/worker.cc", """\
            #include <thread>
            void Spawn() { std::thread t([] {}); t.join(); }
            """)
        t.write("src/common/thread_pool.cc", """\
            #include <thread>
            void Pool() { std::thread t([] {}); t.join(); }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["raw-thread"]
        assert all("service" in path for _r, _l, path in findings)
    finally:
        t.cleanup()


def test_no_float_in_numeric_core_only():
    t = FixtureTree()
    try:
        t.write("src/linalg/vec.cc", "float Sum(float a, float b);\n")
        t.write("src/gp/model.cc", "void Fit(float noise);\n")
        t.write("src/service/wire.cc", "float Encode(double x);\n")
        findings = t.lint()
        assert rules_of(findings) == ["no-float"]
        assert sorted(path for _r, _l, path in findings) == [
            "src/gp/model.cc",
            "src/linalg/vec.cc",
        ]
    finally:
        t.cleanup()


def test_simd_confinement_flags_intrinsics_outside_simd_dir():
    t = FixtureTree()
    try:
        t.write("src/gp/fast_kernel.cc", """\
            #include <immintrin.h>
            double Sum(const double* a) {
              __m256d acc = _mm256_loadu_pd(a);
              return _mm256_cvtsd_f64(acc);
            }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["simd-confinement"]
        # Line 1: the include; lines 3-4: intrinsic tokens (one finding per
        # line — the scan reports the first token it sees).
        assert [line for _r, line, _p in findings] == [1, 3, 4]
    finally:
        t.cleanup()


def test_simd_confinement_allows_simd_dir_and_dispatch_callers():
    t = FixtureTree()
    try:
        t.write("src/linalg/simd/simd_avx2.cc", """\
            #include <immintrin.h>
            double Sum(const double* a) {
              __m256d acc = _mm256_loadu_pd(a);
              return _mm256_cvtsd_f64(acc);
            }
            """)
        t.write("src/gp/caller.cc", """\
            #include "linalg/simd/simd.h"
            double Dot(const double* a, const double* b) {
              return restune::simd::Dot(a, b, 8);
            }
            """)
        assert t.lint() == []
    finally:
        t.cleanup()


def test_naked_new_ignores_preprocessor_lines():
    t = FixtureTree()
    try:
        t.write("src/linalg/alloc.cc", """\
            #include <new>
            int x = 0;
            """)
        assert t.lint() == []
    finally:
        t.cleanup()


def test_obs_discipline_flags_wall_clock_outside_obs():
    t = FixtureTree()
    try:
        t.write("src/tuner/timer.cc", """\
            #include <chrono>
            #include <sys/time.h>
            long Wall() {
              auto t = std::chrono::system_clock::now();
              auto h = std::chrono::high_resolution_clock::now();
              struct timeval tv;
              gettimeofday(&tv, nullptr);
              return tv.tv_sec;
            }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["obs-discipline"]
        assert [line for _r, line, _p in findings] == [4, 5, 7]
    finally:
        t.cleanup()


def test_obs_discipline_allows_wall_clock_inside_obs():
    t = FixtureTree()
    try:
        t.write("src/obs/wallclock.cc", """\
            #include <chrono>
            long Wall() {
              auto t = std::chrono::system_clock::now();
              return 0;
            }
            """)
        assert t.lint() == []
    finally:
        t.cleanup()


def test_obs_discipline_flags_steady_clock_in_src_outside_obs():
    t = FixtureTree()
    try:
        t.write("src/tuner/mono.cc", """\
            #include <chrono>
            long Mono() {
              auto t = std::chrono::steady_clock::now();
              return 0;
            }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["obs-discipline"]
        assert [line for _r, line, _p in findings] == [3]
    finally:
        t.cleanup()


def test_obs_discipline_allows_steady_clock_in_bench():
    t = FixtureTree()
    try:
        t.write("bench/bench_mono.cc", """\
            #include <chrono>
            long Mono() {
              auto t = std::chrono::steady_clock::now();
              return 0;
            }
            """)
        assert t.lint("bench") == []
    finally:
        t.cleanup()


def test_obs_discipline_flags_rng_inside_obs():
    t = FixtureTree()
    try:
        t.write("src/obs/sampler.cc", """\
            #include "common/rng.h"
            double Jitter(restune::Rng* rng) {
              return rng->Uniform();
            }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["obs-discipline"]
        # Line 1: the include (raw-line scan — the quoted path is blanked
        # in the stripped code); line 2: the Rng use.
        assert [line for _r, line, _p in findings] == [1, 2]
    finally:
        t.cleanup()


def test_ignored_status_flagged_only_for_unambiguous_names():
    t = FixtureTree()
    try:
        t.write("src/meta/repo.h", guarded("META_REPO", """\

            namespace restune {
            class Repo {
             public:
              Status AddTask(int task);
              Status Observe(int x);
            };
            class Agent {
             public:
              void Observe(int x);  // same name, void: ambiguous
            };
            }  // namespace restune
            """))
        t.write("src/meta/use.cc", """\
            #include "meta/repo.h"
            void Use(restune::Repo* r, restune::Agent* a) {
              r->AddTask(1);
              a->Observe(2);
              Status s = r->AddTask(3);
              (void)s;
            }
            """)
        findings = t.lint()
        ignored = [(r, l, p) for r, l, p in findings if r == "ignored-status"]
        assert ignored == [("ignored-status", 3, "src/meta/use.cc")]
    finally:
        t.cleanup()


def test_include_guard_must_match_path():
    t = FixtureTree()
    try:
        t.write("src/gp/kernel.h", guarded("GP_WRONG"))
        t.write("src/gp/pragma.h", "#pragma once\nint x;\n")
        t.write("src/gp/right.h", guarded("GP_RIGHT"))
        findings = t.lint()
        assert rules_of(findings) == ["include-guard"]
        assert sorted(path for _r, _l, path in findings) == [
            "src/gp/kernel.h",
            "src/gp/pragma.h",
        ]
    finally:
        t.cleanup()


def test_expected_guard_strips_leading_src():
    assert restune_lint.expected_guard("src/gp/kernel.h") == \
        "RESTUNE_GP_KERNEL_H_"
    assert restune_lint.expected_guard("tests/test_util.h") == \
        "RESTUNE_TESTS_TEST_UTIL_H_"


def test_comments_and_strings_do_not_trigger_rules():
    t = FixtureTree()
    try:
        t.write("src/bo/doc.cc", """\
            // rand() in a comment, and `new Foo` too.
            /* std::thread worker; */
            const char* kMsg = "call rand() and new and delete";
            int x = 0;
            """)
        assert t.lint() == []
    finally:
        t.cleanup()


def test_inline_suppression_on_line_or_line_above():
    t = FixtureTree()
    try:
        t.write("src/tuner/leak.cc", """\
            struct P {};
            P* A() { return new P(); }  // restune-lint: allow(naked-new) -- test
            // restune-lint: allow(naked-new) -- marker on the line above
            P* B() { return new P(); }
            P* C() { return new P(); }
            """)
        findings = t.lint()
        assert [(r, l) for r, l, _p in findings] == [("naked-new", 5)]
    finally:
        t.cleanup()


def test_net_discipline_flags_raw_sockets_outside_net():
    t = FixtureTree()
    try:
        t.write("src/service/raw_transport.cc", """\
            #include <sys/socket.h>
            #include <poll.h>
            int Open() {
              int fd = ::socket(2, 1, 0);
              char c;
              ::read(fd, &c, 1);
              return fd;
            }
            """)
        findings = t.lint("src")
        lines = sorted((line, rule) for rule, line, _path in findings
                       if rule == "net-discipline")
        # Two headers + two naked syscalls.
        assert [l for l, _ in lines] == [1, 2, 4, 6], findings
    finally:
        t.cleanup()


def test_net_discipline_exempts_src_net_and_flags_stray_eintr():
    t = FixtureTree()
    try:
        # The net module itself is where raw sockets are supposed to live;
        # socket.{h,cc} is additionally the one home of EINTR.
        t.write("src/net/socket.cc", """\
            #include <sys/socket.h>
            #include <cerrno>
            #include "net/socket.h"
            int RawOpen() {
              int rc;
              do { rc = ::socket(2, 1, 0); } while (rc < 0 && errno == EINTR);
              return rc;
            }
            """)
        assert t.lint("src") == []
        # A hand-rolled EINTR loop elsewhere in src/net is still a finding:
        # the retry must go through RetryEintr.
        t.write("src/net/wire_loop.cc", """\
            #include <cerrno>
            int Spin(int fd) {
              int rc;
              do { rc = Do(fd); } while (rc < 0 && errno == EINTR);
              return rc;
            }
            """)
        findings = t.lint("src")
        assert [(r, l) for r, l, _p in findings] == [("net-discipline", 4)], \
            findings
        # ... and so is one outside src/net entirely.
        t.write("src/net/wire_loop.cc", "int Quiet() { return 0; }\n")
        t.write("src/tuner/retry.cc", """\
            #include <cerrno>
            int Spin(int fd) {
              int rc;
              do { rc = Do(fd); } while (rc < 0 && errno == EINTR);
              return rc;
            }
            """)
        findings = t.lint("src")
        assert [(r, l) for r, l, _p in findings] == [("net-discipline", 4)], \
            findings
    finally:
        t.cleanup()


def test_net_discipline_ignores_qualified_names():
    t = FixtureTree()
    try:
        # std::bind / my::ns::connect are qualified lookups, not syscalls.
        t.write("src/tuner/callbacks.cc", """\
            #include <functional>
            void Hook(std::function<void()>* out) {
              *out = std::bind(&Hook, out);
              net::Socket sock = net::ConnectTcp("127.0.0.1", 1).value();
            }
            """)
        assert t.lint("src") == []
    finally:
        t.cleanup()


def test_allowlist_file_suppresses_by_rule_and_glob():
    t = FixtureTree()
    try:
        t.write("src/tuner/leak.cc", "struct P {};\nP* A() { return new P(); }\n")
        allow = t.write("allow.txt",
                        "naked-new src/tuner/*.cc  # fixture exception\n")
        assert t.lint(allowlist=allow) == []
        # A non-matching rule must not suppress.
        allow2 = t.write("allow2.txt", "no-float src/tuner/*.cc  # wrong rule\n")
        assert rules_of(t.lint(allowlist=allow2)) == ["naked-new"]
    finally:
        t.cleanup()


def test_unbounded_wait_flags_sleeps_and_naked_wait_in_tests():
    t = FixtureTree()
    try:
        t.write("tests/slow_test.cc", """\
            #include <chrono>
            #include <thread>
            void Settle() {
              sleep(1);
              usleep(500);
              std::this_thread::sleep_for(std::chrono::seconds(1));
            }
            void Block(std::condition_variable& cv,
                       std::unique_lock<std::mutex>& lk) {
              cv.wait(lk);
            }
            """)
        findings = t.lint("tests")
        assert rules_of(findings) == ["unbounded-wait"]
        assert [line for _r, line, _p in findings] == [4, 5, 6, 10]
    finally:
        t.cleanup()


def test_unbounded_wait_allows_bounded_waits_and_non_test_code():
    t = FixtureTree()
    try:
        t.write("tests/bounded_test.cc", """\
            #include <chrono>
            bool Bounded(std::condition_variable& cv,
                         std::unique_lock<std::mutex>& lk) {
              using namespace std::chrono_literals;
              return cv.wait_for(lk, 5s) == std::cv_status::no_timeout &&
                     cv.wait_until(lk, Deadline()) == std::cv_status::no_timeout;
            }
            """)
        # The rule is scoped to tests/: a sleep in src/ is another rule's
        # business (or legitimate), not this one's.
        t.write("src/dbsim/pacing.cc", """\
            #include <thread>
            void Pace() { std::this_thread::sleep_for(Interval()); }
            """)
        assert t.lint("tests", "src") == []
    finally:
        t.cleanup()


def test_unbounded_wait_honors_inline_suppression():
    t = FixtureTree()
    try:
        t.write("tests/suppressed_test.cc", """\
            #include <unistd.h>
            // restune-lint: allow(unbounded-wait) -- exercising the fixture
            void Nap() { sleep(1); }
            void Doze() { usleep(10); }
            """)
        findings = t.lint("tests")
        assert [(r, l) for r, l, _p in findings] == [("unbounded-wait", 4)]
    finally:
        t.cleanup()


def test_advisor_discipline_flags_maximize_calls_in_advisors():
    t = FixtureTree()
    try:
        t.write("src/tuner/forest_advisor.cc", """\
            #include "bo/acq_optimizer.h"
            Vector Suggest(Rng* rng) {
              return MaximizeAcquisitionBatch(acquisition, 3, rng);
            }
            Vector SuggestScalar(Rng* rng) {
              return MaximizeAcquisition (scalar, 3, rng);
            }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["advisor-discipline"]
        assert [line for _r, line, _p in findings] == [3, 6]
    finally:
        t.cleanup()


def test_advisor_discipline_allows_the_step_and_other_modules():
    t = FixtureTree()
    try:
        t.write("src/tuner/suggestion_step.cc", """\
            Vector Maximize() {
              return MaximizeAcquisitionBatch(penalized, 3, &rng_, options);
            }
            """)
        t.write("src/tuner/cbo_advisor.cc", """\
            // Scores candidates for SuggestionStep, which calls
            // MaximizeAcquisitionBatch(...) on our behalf.
            Vector Suggest() { return step_.Maximize(request, acq); }
            """)
        t.write("src/bo/acq_optimizer.cc", """\
            Vector MaximizeAcquisition(const Fn& f, size_t dim, Rng* rng) {
              return MaximizeAcquisitionBatch(Wrap(f), dim, rng);
            }
            """)
        assert t.lint() == []
    finally:
        t.cleanup()


def test_lock_discipline_flags_naked_locks_and_std_guards():
    t = FixtureTree()
    try:
        t.write("src/meta/store.cc", """\
            #include <mutex>
            void Touch(std::mutex& mu, int& v) {
              mu.lock();
              ++v;
              mu.unlock();
            }
            void Guarded(std::mutex& mu, int& v) {
              std::lock_guard<std::mutex> lock(mu);
              ++v;
            }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["lock-discipline"]
        assert [line for _r, line, _p in findings] == [3, 5, 8]
    finally:
        t.cleanup()


def test_lock_discipline_exempts_mutex_wrapper_and_tests():
    t = FixtureTree()
    try:
        # The wrapper itself is where the naked calls are supposed to live.
        t.write("src/common/mutex.h", guarded("COMMON_MUTEX", """\

            #include <mutex>
            namespace restune {
            class Mutex {
             public:
              void lock() { mu_.lock(); }
              void unlock() { mu_.unlock(); }
             private:
              std::mutex mu_;
            };
            }  // namespace restune
            """))
        # Tests may use std primitives directly for interop fixtures.
        t.write("tests/interop_test.cc", """\
            #include <mutex>
            void Fixture(std::mutex& mu) { std::lock_guard<std::mutex> l(mu); }
            """)
        assert t.lint("src", "tests") == []
    finally:
        t.cleanup()


def test_memory_order_requires_explicit_ordering_in_lockfree_scopes():
    t = FixtureTree()
    try:
        t.write("src/obs/counter.cc", """\
            #include <atomic>
            void Bump(std::atomic<int>& c) {
              c.fetch_add(1);
              c.fetch_add(1, std::memory_order_relaxed);
              c.store(0,
                      std::memory_order_release);
              (void)c.load();
            }
            """)
        findings = t.lint()
        assert rules_of(findings) == ["memory-order"]
        # The multi-line store with an explicit order does not trip; the
        # bare fetch_add and load do.
        assert [line for _r, line, _p in findings] == [3, 7]
    finally:
        t.cleanup()


def test_memory_order_ignores_modules_without_lockfree_paths():
    t = FixtureTree()
    try:
        t.write("src/tuner/flag.cc", """\
            #include <atomic>
            void Set(std::atomic<bool>& f) { f.store(true); }
            """)
        assert t.lint() == []
    finally:
        t.cleanup()


LAYERING_FIXTURE = """\
{
  "modules": {
    "obs": [],
    "common": ["obs"],
    "gp": ["common"]
  },
  "leaf_headers": ["common/leaf.h"]
}
"""


def test_layering_enforces_the_declared_dag():
    t = FixtureTree()
    try:
        t.write("tools/layering.json", LAYERING_FIXTURE)
        t.write("src/common/util.cc", """\
            #include "common/util.h"
            #include "obs/metrics.h"
            #include "gp/kernel.h"
            #include <vector>
            """)
        findings = t.lint()
        # Own module and declared deps pass; the upward include (gp) and
        # system headers behave as expected.
        assert [(r, line) for r, line, _p in findings] == [("layering", 3)]
    finally:
        t.cleanup()


def test_layering_leaf_headers_bypass_the_dag_but_stay_dependency_free():
    t = FixtureTree()
    try:
        t.write("tools/layering.json", LAYERING_FIXTURE)
        # obs depends on nothing internal, yet may use the leaf header.
        t.write("src/obs/trace.cc", """\
            #include "common/leaf.h"
            """)
        # The leaf header itself must not pull in a real module header.
        t.write("src/common/leaf.h", guarded("COMMON_LEAF", """\

            #include "common/util.h"
            """))
        findings = t.lint()
        assert [(r, line, p.endswith("leaf.h")) for r, line, p in findings] \
            == [("layering", 4, True)]
    finally:
        t.cleanup()


def test_layering_flags_undeclared_modules():
    t = FixtureTree()
    try:
        t.write("tools/layering.json", LAYERING_FIXTURE)
        t.write("src/mystery/new_code.cc", "void F() {}\n")
        findings = t.lint()
        assert [(r, line) for r, line, _p in findings] == [("layering", 1)]
    finally:
        t.cleanup()


def test_guarded_by_coverage_requires_an_annotated_member():
    t = FixtureTree()
    try:
        t.write("src/service/cache.h", guarded("SERVICE_CACHE", """\

            #include <map>
            #include <mutex>
            namespace restune {
            class Unguarded {
             private:
              std::mutex mu_;
              std::map<int, int> entries_;
            };
            class Guarded {
             private:
              mutable Mutex mu_;
              std::map<int, int> entries_ GUARDED_BY(mu_);
            };
            }  // namespace restune
            """))
        findings = t.lint()
        assert [(r, line) for r, line, _p in findings] \
            == [("guarded-by-coverage", 9)]
    finally:
        t.cleanup()


def test_guarded_by_coverage_does_not_credit_nested_class_annotations():
    t = FixtureTree()
    try:
        t.write("src/service/nested.h", guarded("SERVICE_NESTED", """\

            #include <mutex>
            namespace restune {
            class Outer {
              struct Inner {
                Mutex mu;
                int v GUARDED_BY(mu) = 0;
              };
              std::mutex outer_mu_;
            };
            }  // namespace restune
            """))
        findings = t.lint()
        # Inner is fully annotated; Outer's mutex guards nothing.
        assert [(r, line) for r, line, _p in findings] \
            == [("guarded-by-coverage", 11)]
    finally:
        t.cleanup()


def test_lexer_handles_raw_strings_and_digit_separators():
    t = FixtureTree()
    try:
        # The ) inside the raw string must not unbalance anything, the
        # quote inside it must not open a string, and the digit separators
        # must not open a char literal that swallows the naked new below.
        t.write("src/tuner/tricky.cc", """\
            const char* kJson = R"({"new": "delete', ) unbalanced"})";
            const long kBig = 1'000'000;
            struct P {};
            P* Make() { return new P(); }
            """)
        findings = t.lint()
        assert [(r, line) for r, line, _p in findings] == [("naked-new", 4)]
    finally:
        t.cleanup()


def test_prune_allowlist_reports_stale_entries():
    t = FixtureTree()
    try:
        t.write("src/tuner/leak.cc", "struct P {};\nP* A() { return new P(); }\n")
        allow = t.write("allow.txt", """\
            naked-new src/tuner/*.cc  # live: suppresses the leak above
            no-float src/gp/*.cc      # stale: no such file any more
            """)
        findings, entries, used = restune_lint.run_lint_with_usage(
            [os.path.join(t.root, "src")], t.root, allow)
        assert findings == []
        stale = [entries[i] for i in range(len(entries)) if i not in used]
        assert stale == [("no-float", "src/gp/*.cc")]
    finally:
        t.cleanup()


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = []
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            failed.append(name)
            print(f"FAIL {name}: {e}")
    print(f"{len(tests) - len(failed)}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
