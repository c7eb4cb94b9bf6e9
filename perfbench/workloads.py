"""The three workloads: cli-cold, search-heavy and serve-mixed.

Each is a closed loop with one client and one op outstanding.  Its op
stream comes from the seed alone, and the program sees only the inputs
the stream names.  One :meth:`Workload.run` is one measured phase: set
up (several times, for ``setup_s``), run whole rounds of ops until the
time is up, and tear down.  ``README.md`` says why each workload exists.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time

import known
import spans
from results import EXACT
from spans import now

#: Set-ups per phase; ``setup_s`` is their median.
SETUP_ROUNDS = 5
#: A child process or server that takes longer than this is killed.
CHILD_TIMEOUT_S = 120
#: The program every set-up runs once, to import and warm up.
WARMUP_PROGRAM = "thttpd"
#: How long the benchmark and its children stay on one CPU while ops
#: run, in ms; see ``spread.py`` for why.
SPREAD_MS = 10


@contextlib.contextmanager
def spread():
    """Spread this process and its children over all CPUs while the
    block runs: the in-process work, CLI children, the serve subprocess."""
    helper = subprocess.Popen(
        [sys.executable, os.path.join(known.HERE, "spread.py"), str(os.getpid()),
         str(SPREAD_MS)],
        stdin=subprocess.PIPE,
    )
    try:
        yield
    finally:
        helper.stdin.close()
        try:
            helper.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()


class Op:
    """One op: what it asked, when, and what came back."""

    def __init__(self, index: int, kind: str, item) -> None:
        self.index = index
        self.kind = kind
        self.item = item
        self.start = self.end = 0
        self.error = None
        #: Counts read off the program's output that depend only on the
        #: item (compared across every op of the item).
        self.item_counts = {}
        #: Counts that also depend on the ops before (compared op by op
        #: between the untraced and traced phases).
        self.seq_counts = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Phase:
    """What one measured pass of a workload produced."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.ops = []
        self.setup_ns = []
        self.wall_ns = 0
        self.peak_rss_kb = 0
        #: Layer spans recorded inside ops, from every process.
        self.spans = []
        #: ``cli.start``/``cli.import`` spans of set-up processes.
        self.setup_spans = []
        self.ping_ns = []
        #: Problems outside any single op (set-up, tear-down).
        self.errors = []


def hashseeds(seed: int) -> tuple:
    """Two distinct ``PYTHONHASHSEED`` values for the child processes."""
    return str((2 * seed + 1) % 4294967295), str((2 * seed + 2) % 4294967295)


class Workload:
    name = ""
    #: ``analyze`` programs this workload needs golden profiles for.
    programs = ()
    #: Name of each op's root span; its self time is unattributed.
    root = "op"
    #: Span counts that depend only on an op's item in this workload.
    item_stable = tuple(key for key in EXACT if not key.startswith("store."))

    def __init__(self, root: str, seed: int, scratch: str) -> None:
        self.root_dir = root
        self.seed = seed
        self.scratch = scratch
        self.hashseeds = hashseeds(seed)

    def env(self, hashseed: str) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root_dir, "src")
        env["PYTHONHASHSEED"] = hashseed
        return env

    def command(self, args, traced: bool, op: str, spawned: int) -> list:
        if not traced:
            return [sys.executable, "-m", "repro.cli", *args]
        return [
            sys.executable, os.path.join(self.root_dir, "perfbench", "launcher.py"),
            self.spans_path(op), str(spawned), op, "--", *args,
        ]

    def spans_path(self, op: str) -> str:
        return os.path.join(self.scratch, f"spans-{op}.json")

    def take_spans(self, op: str, exited: int) -> list:
        """The spans a child wrote; its ``cli.exit`` span ends at ``exited``,
        when this process saw it exit."""
        path = self.spans_path(op)
        child_spans = [
            span if span[5] is not None else (*span[:5], exited, span[6])
            for span in spans.load(path)
        ]
        os.remove(path)
        return child_spans

    def run_cli(self, args, hashseed: str, traced: bool, op: str):
        """Run one ``privanalyzer`` process to completion.

        Returns ``(start_ns, end_ns, stdout, max_rss_kb)``; raises
        ``RuntimeError`` when it fails.
        """
        with open(os.path.join(self.scratch, "child.err"), "w+b") as err:
            start = now()
            proc = subprocess.Popen(
                self.command(args, traced, op, start), cwd=self.root_dir,
                env=self.env(hashseed), stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                end = now()
                timer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                tail = err.read().decode("utf-8", "replace").strip()[-400:]
                raise RuntimeError(
                    f"privanalyzer {' '.join(args)} exited {proc.returncode}: {tail}"
                )
        return start, end, out, usage.ru_maxrss

    def run(self, seconds: float, traced: bool) -> Phase:
        raise NotImplementedError

    def loop(self, phase: Phase, seconds: float, rounds, do_op) -> None:
        """Run whole rounds of ops until ``seconds`` have passed.

        Stopping only between rounds gives every run the same mix of
        items, so the op count and the percentiles do not depend on
        where the deadline cut a round.
        """
        with spread():
            started = now()
            deadline = started + int(seconds * 1e9)
            index = 0
            for round_ in rounds:
                if now() >= deadline:
                    break
                for kind, item in round_:
                    op = Op(index, kind, item)
                    index += 1
                    op.start = now()  # do_op may time the op more closely
                    try:
                        do_op(op)
                    # ServeError is a RuntimeError, ProtocolError a ValueError.
                    except (RuntimeError, ValueError, KeyError, OSError) as error:
                        op.error = f"{type(error).__name__}: {error}"
                    if not op.end:
                        op.end = now()
                    phase.ops.append(op)
            phase.wall_ns = now() - started


def seeded_rounds(seed: int, kind: str, items):
    """Endless rounds; each round is ``items`` in a seeded order."""
    rng = random.Random(seed)
    while True:
        yield [(kind, item) for item in rng.sample(items, len(items))]


class _AnalyzeProcesses(Workload):
    """Set-up shared by the two workloads whose set-up is a fresh process:
    start the interpreter, import, and analyze once."""

    def setup_process(self, phase: Phase, traced: bool, round_: int):
        started = now()
        answers = known.KnownAnswers(self.root_dir, self.programs)
        op = f"setup{round_}"
        _, end, out, _ = self.run_cli(
            ["analyze", WARMUP_PROGRAM, "--format", "json"],
            self.hashseeds[round_ % 2], traced, op,
        )
        problem = answers.check_analysis(WARMUP_PROGRAM, json.loads(out))
        if problem:
            phase.errors.append(f"set-up analyze: {problem}")
        phase.setup_ns.append(now() - started)
        if traced:
            phase.setup_spans.extend(
                span for span in self.take_spans(op, end) if span[3].startswith("cli.")
            )
        return answers


class CliCold(_AnalyzeProcesses):
    """Fresh ``python -m repro.cli analyze <p> --format json`` processes."""

    name = "cli-cold"
    programs = ("passwd", "su", "ping", "thttpd", "sshd", "passwdRef")

    def run(self, seconds: float, traced: bool) -> Phase:
        phase = Phase(traced)
        for round_ in range(SETUP_ROUNDS):
            answers = self.setup_process(phase, traced, round_)
        peak = 0

        def do_op(op: Op) -> None:
            nonlocal peak
            program = op.item
            name = str(op.index)
            # Alternate hash seeds by round, so each program runs under both.
            op.start, op.end, out, rss = self.run_cli(
                ["analyze", program, "--format", "json"],
                self.hashseeds[op.index // len(self.programs) % 2], traced, name,
            )
            peak = max(peak, rss)
            if traced:
                phase.spans.extend(self.take_spans(name, op.end))
            result = json.loads(out)
            op.error = answers.check_analysis(program, result)
            op.item_counts = {"vm.instructions": result["total_instructions"]}

        self.loop(phase, seconds, seeded_rounds(self.seed, "analyze", self.programs), do_op)
        phase.peak_rss_kb = peak
        return phase


class SearchHeavy(_AnalyzeProcesses):
    """In-process analyses whose time is mostly ROSA search."""

    name = "search-heavy"
    #: One round, as (program, message repeat) ops.  suRef at repeat 2 is
    #: left out because its verdict depends on host speed.  The weights
    #: keep the median and the tail (the eleventh-slowest op) inside the
    #: passwdRef ops whether a 30-second run fits four rounds or eight:
    #: with one suRef op per round, eleven suRef ops never fit, and a
    #: tail that sometimes falls among them would jump by 3x.
    items = (("suRef", 1),) + (("passwdRef", 2),) * 10 + (("thttpd", 3),) * 3
    programs = ("suRef", "passwdRef", "thttpd")

    def __init__(self, root: str, seed: int, scratch: str) -> None:
        super().__init__(root, seed, scratch)
        sys.path.insert(0, os.path.join(root, "src"))
        import repro.cli  # noqa: F401 - what a fresh process imports
        from repro.core import pipeline, report
        from repro.programs import spec_by_name

        self.pipeline = pipeline
        self.report = report
        self.spec_by_name = spec_by_name
        # This process's own warm-up, like the set-up processes'.
        report.analysis_to_dict(
            pipeline.PrivAnalyzer().analyze(spec_by_name(WARMUP_PROGRAM))
        )

    def run(self, seconds: float, traced: bool) -> Phase:
        phase = Phase(traced)
        for round_ in range(SETUP_ROUNDS):
            answers = self.setup_process(phase, traced, round_)
        recorder = spans.Recorder(id_prefix="b") if traced else None
        if recorder is not None:
            spans.install(recorder)

        def do_op(op: Op) -> None:
            program, repeat = op.item
            if recorder is not None:
                recorder.begin_op(str(op.index))
            op.start = now()
            try:
                analysis = self.pipeline.PrivAnalyzer(message_repeat=repeat).analyze(
                    self.spec_by_name(program)
                )
                result = self.report.analysis_to_dict(analysis)
            finally:
                op.end = now()
                if recorder is not None:
                    recorder.end_op()
            op.error = answers.check_analysis(program, result)
            reports = [
                report for phase_ in analysis.phases for report in phase_.verdicts.values()
            ]
            # Reports not served from the LRU are this op's live searches.
            live = [report for report in reports if not report.from_cache]
            op.item_counts = {
                "vm.instructions": analysis.chrono.total,
                "engine.queries": len(reports),
                "search.live": len(live),
                "search.states_explored": sum(r.states_explored for r in live),
                "search.states_seen": sum(r.states_seen for r in live),
                "search.symmetry_hits": sum(r.stats.symmetry_hits for r in live),
                "search.por_pruned": sum(r.stats.por_pruned for r in live),
            }

        try:
            self.loop(phase, seconds, seeded_rounds(self.seed, "analyze", self.items), do_op)
        finally:
            if recorder is not None:
                recorder.uninstall()
                phase.spans = recorder.spans
        phase.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return phase


class ServeMixed(Workload):
    """One ``ServeClient`` sending ``analyze`` and ``rosa`` requests to a
    ``privanalyzer serve`` subprocess over a fresh store."""

    name = "serve-mixed"
    root = "serve.request"
    #: Which searches run live depends on what the store already holds.
    item_stable = ("vm.instructions",)
    programs = ("passwd", "passwdRef", "ping", "sshd", "sshdPrivsep", "su", "thttpd")
    #: ``rosa`` requests per round of the seven ``analyze`` requests.  Two
    #: keep the median op inside the six ``analyze`` programs that take
    #: about 100 ms (ping takes 30 ms, a ``rosa`` request 1 to 4 ms), away
    #: from the jump between them.  A median among the ``rosa`` requests
    #: would follow the host's file-system latency, which moved it by 30%
    #: from run to run.
    rosa_per_round = 2
    #: Set-up requests use this budget, so their verdicts are stored under
    #: keys that no measured request (default budget 200,000) reads.
    warmup_max_states = 199_999
    pings = 20

    def __init__(self, root: str, seed: int, scratch: str) -> None:
        super().__init__(root, seed, scratch)
        sys.path.insert(0, os.path.join(root, "src"))
        from repro.serve.client import ServeClient

        self.client_class = ServeClient

    def rounds(self):
        rng = random.Random(self.seed)
        names = sorted(known.TEMPLATES)
        while True:
            items = [("analyze", program) for program in self.programs]
            items += [
                ("rosa", (rng.choice(names), rng.randrange(known.VARIANTS)))
                for _ in range(self.rosa_per_round)
            ]
            rng.shuffle(items)
            yield items

    def start_server(self, phase: Phase, traced: bool, hashseed: str, tag: str):
        started = now()
        answers = known.KnownAnswers(self.root_dir, self.programs, rosa=True)
        port_file = os.path.join(self.scratch, f"port-{tag}")
        store = os.path.join(self.scratch, f"store-{tag}")
        log = open(os.path.join(self.scratch, f"serve-{tag}.log"), "w+b")
        proc = subprocess.Popen(
            self.command(
                ["serve", "--store", store, "--port", "0", "--port-file", port_file],
                traced, tag, started,
            ),
            cwd=self.root_dir, env=self.env(hashseed), stdin=subprocess.DEVNULL,
            stdout=log, stderr=log,
        )
        server = {"proc": proc, "log": log, "tag": tag, "client": None}
        try:
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            address = ""
            while not address.endswith("\n"):
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"serve did not start: {self.log_tail(log)}")
                time.sleep(0.002)
                try:
                    with open(port_file, "r", encoding="utf-8") as handle:
                        address = handle.read()
                except FileNotFoundError:
                    pass
            host, port = address.strip().rsplit(":", 1)
            client = server["client"] = self.client_class(host, int(port))
            client.ping()
            result = client.analyze(
                WARMUP_PROGRAM, max_states=self.warmup_max_states
            )["result"]
            problem = answers.check_analysis(WARMUP_PROGRAM, result)
            verdict = client.rosa(
                answers.rosa_text("figure2", 0), name="figure2",
                max_states=self.warmup_max_states,
            )["result"]["verdict"]
            problem = problem or answers.check_rosa("figure2", 0, verdict)
            if problem:
                phase.errors.append(f"set-up request: {problem}")
        except BaseException:
            self.stop_server(phase, server)
            raise
        phase.setup_ns.append(now() - started)
        return answers, server

    @staticmethod
    def log_tail(log) -> str:
        log.flush()
        log.seek(0)
        return log.read().decode("utf-8", "replace").strip()[-400:]

    def stop_server(self, phase: Phase, server, keep_spans: bool = False) -> int:
        """Shut the server down and reap it; returns its max RSS in KiB."""
        proc, client = server["proc"], server["client"]
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            if client is not None:
                try:
                    client.shutdown()
                except (OSError, RuntimeError, ValueError) as error:
                    phase.errors.append(f"serve shutdown: {error}")
                    proc.kill()
                finally:
                    client.close()
            else:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        server["log"].close()
        if phase.traced and proc.returncode == 0:
            server_spans = self.take_spans(server["tag"], now())
            phase.setup_spans.extend(s for s in server_spans if s[3].startswith("cli."))
            if keep_spans:
                # Request spans carry no op yet; results.assign_by_time
                # matches them to round trips.
                phase.spans = [
                    s for s in server_spans if not s[3].startswith(("cli.", "trace."))
                ]
        return usage.ru_maxrss

    def run(self, seconds: float, traced: bool) -> Phase:
        phase = Phase(traced)
        # The traced phase's server gets the other hash seed, so the
        # untraced-versus-traced count comparison also spans two seeds.
        hashseed = self.hashseeds[int(traced)]
        server = None
        for round_ in range(SETUP_ROUNDS):
            if server is not None:
                self.stop_server(phase, server)
            answers, server = self.start_server(
                phase, traced, hashseed, f"{int(traced)}-{round_}"
            )
        client = server["client"]

        def do_op(op: Op) -> None:
            op.start = now()
            if op.kind == "analyze":
                response = client.analyze(op.item)
            else:
                name, variant = op.item
                response = client.rosa(answers.rosa_text(name, variant), name=name)
            op.end = now()
            result, served = response["result"], response.get("served", {})
            op.seq_counts = {
                "store.hits": served.get("store_hits"),
                "store.published": served.get("published"),
            }
            if op.kind == "analyze":
                op.error = answers.check_analysis(op.item, result)
                op.item_counts = {"vm.instructions": result["total_instructions"]}
            else:
                op.error = answers.check_rosa(name, variant, result["verdict"])
                if not result["from_cache"]:
                    op.seq_counts["search.states_explored"] = result["states_explored"]
                    op.seq_counts["search.states_seen"] = result["states_seen"]

        try:
            if traced:
                phase.ping_ns += self.time_pings(client)
            try:
                self.loop(phase, seconds, self.rounds(), do_op)
            finally:
                if traced:
                    phase.ping_ns += self.time_pings(client)
        finally:
            phase.peak_rss_kb = self.stop_server(phase, server, keep_spans=traced)
        return phase

    def time_pings(self, client) -> list:
        times = []
        for _ in range(self.pings):
            start = now()
            client.ping()
            times.append(now() - start)
        return times


WORKLOADS = {cls.name: cls for cls in (CliCold, SearchHeavy, ServeMixed)}
