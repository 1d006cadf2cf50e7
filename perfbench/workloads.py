"""The four benchmark workloads, each built from a seed.

Every workload follows the same shape so the harness in ``run.py`` can
drive it without knowing what it exercises:

* ``prepare()`` builds the references (outside any timing) and runs the
  path guard: every op must take the intended strategy on the intended
  engine, and every reference answer must be non-empty.
* ``setup(inputs, tracer)`` goes from the version-0 database objects
  (built by ``inputs()``, untimed) to the first answer, cold, and records
  whether it was correct.  The harness times it for ``setup_s``.
* ``cycle(live, rec, tracer)`` runs one closed-loop cycle: a version swap
  (the next database version becomes current, timed to its first correct
  answer: a *write*) followed by a few *reads*.
* ``counters(live)`` and ``kernel_stats(live)`` expose the library's own
  public counters for the traced run.

Sizes come from ``workloads.json`` beside this file; the seed decides
constant names, null positions, versions and the op sequence, never the
sizes, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.algebra import naive_evaluate, parse_ra
from repro.datamodel import Database, Eq, Null, Relation, Valuation
from repro.semantics import count_cwa_worlds, default_domain
from repro.serve import Server

RECORDS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")

#: Absolute tolerance when comparing two exact probabilities.
PROB_TOLERANCE = 1e-9

#: Tracebacks printed per run before further failures are only counted.
MAX_REPORTED_FAILURES = 3


class GuardError(RuntimeError):
    """An op does not take the path its workload is meant to measure."""


def load_records() -> Dict[str, Dict[str, Any]]:
    with open(RECORDS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Recorder:
    """Latencies and outcome counts of the ops of one window."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {"read": [], "write": []}
        #: (start, end) perf_counter times of the same ops, for scaling
        #: each to the host's reference speed (see ``hostspeed.py``).
        self.spans: Dict[str, List[Tuple[float, float]]] = {"read": [], "write": []}
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        #: Seconds the system under test was busy with ops (closed loop:
        #: single-client op latencies, or the wall time of a concurrent phase).
        self.busy = 0.0
        self.busy_spans: List[Tuple[float, float]] = []
        #: Called right after each timed op that runs alone (not during
        #: serve_join's concurrent reads): the host-speed probe of
        #: ``hostspeed.py`` in the end-to-end run, nothing otherwise.
        self.after_op: Callable[[], None] = lambda: None

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def ok(self, kind: str, started: float, ended: float) -> None:
        self.attempted += 1
        self.latencies[kind].append(ended - started)
        self.spans[kind].append((started, ended))

    def add_busy(self, started: float, ended: float) -> None:
        self.busy += ended - started
        self.busy_spans.append((started, ended))

    def check(self, ok: bool, what: str) -> None:
        """Count an answer checked outside any timed op."""
        if ok:
            self.attempted += 1
        else:
            self.mismatch(what)

    def mismatch(self, what: str) -> None:
        self.attempted += 1
        self.wrong += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"wrong answer: {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.errors += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"failed op: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def run_op(
    rec: Recorder,
    kind: str,
    label: str,
    call: Callable[[], Any],
    check: Callable[[Any], bool],
    tracer: Any = None,
) -> None:
    """Time one single-client op, then check its answer outside the timing."""
    scope = tracer.span("bench." + kind, op=label) if tracer is not None else contextlib.nullcontext()
    started = time.perf_counter()
    try:
        with scope:
            answer = call()
    except Exception:  # the loop must keep running; the failure is counted
        rec.add_busy(started, time.perf_counter())
        rec.error(label)
        return
    ended = time.perf_counter()
    rec.add_busy(started, ended)
    rec.after_op()
    if check(answer):
        rec.ok(kind, started, ended)
    else:
        rec.mismatch(label)


def same_rows(reference: frozenset) -> Callable[[Any], bool]:
    return lambda answer: answer.rows == reference


def fresh_database(relations: Dict[str, Tuple[Tuple[str, ...], List[tuple]]]) -> Database:
    """A new Database object for one version (no caches shared with older ones)."""
    return Database.from_relations(
        [
            Relation.create(name, rows, attributes=attributes)
            for name, (attributes, rows) in relations.items()
        ]
    )


def guard_explain(query: Any, expect: Tuple[str, ...], label: str) -> None:
    text = query.explain()
    for needle in expect:
        if needle not in text:
            raise GuardError(f"{label}: explain() lacks {needle!r}:\n{text}")


class Workload:
    """Base class: the default window is a sequence of closed-loop cycles."""

    name = ""

    def __init__(self, seed: int, sizes: Dict[str, Any]) -> None:
        self.seed = seed
        self.sizes = sizes
        self.rng = random.Random(f"{self.name}:{seed}")

    def window(
        self, live: Any, seconds: float, rec: Recorder, tracer: Any = None, between: Optional[Callable[[], None]] = None
    ) -> None:
        """Run cycles until ``seconds`` have passed, calling ``between`` after each."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.cycle(live, rec, tracer)
            if between is not None:
                between()

    def counters(self, live: Any) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for session in self.sessions(live):
            for name, value in session.metrics()["counters"].items():
                total[name] = total.get(name, 0) + value
        return total

    def kernel_stats(self, live: Any) -> Dict[str, int]:
        return self.sessions(live)[0].kernel_stats()

    def sessions(self, live: Any) -> List[Any]:
        raise NotImplementedError

    def close(self, live: Any) -> None:
        for session in self.sessions(live):
            session.close()


# ----------------------------------------------------------------------
# Big(a, b) / Small(b, c): the join instance of serve_join and sqlite_reload
# ----------------------------------------------------------------------
class JoinInstance:
    """Seeded versions of the e25 hot-spot shape plus its query mix."""

    def __init__(self, rng: random.Random, sizes: Dict[str, Any]) -> None:
        big_rows = sizes["big_rows"]
        b_domain = sizes["b_domain"]
        a_domain = sizes["a_domain"]
        null_rows = set(rng.sample(range(big_rows), round(big_rows * sizes["null_share"])))
        b_names = [f"b{i}" for i in range(b_domain)]
        rng.shuffle(b_names)
        base = [
            (f"a{i % a_domain}", Null(f"n{i}") if i in null_rows else rng.choice(b_names))
            for i in range(big_rows)
        ]
        # Small covers half of the b domain, so about half of Big joins.
        small = [
            (b_names[j], f"c{rng.randrange(sizes['c_domain'])}")
            for j in range(sizes["small_rows"])
        ]
        self.small = small
        self.versions: List[List[tuple]] = [base]
        constant_rows = [i for i in range(big_rows) if i not in null_rows]
        for _ in range(1, sizes["versions"]):
            rows = list(self.versions[-1])
            for i in rng.sample(constant_rows, round(big_rows * sizes["rewrite_share"])):
                rows[i] = (rows[i][0], rng.choice(b_names))
            self.versions.append(rows)
        joined = {b for b, _ in small}
        in_every = set.intersection(
            *({b for _, b in rows if isinstance(b, str)} & joined for rows in self.versions)
        )
        pool = sizes["constant_pool"]
        b_pool = rng.sample(sorted(in_every), pool)
        c_pool = rng.sample(sorted({c for _, c in small}), pool)
        self.fixed = [
            parse_ra("project[a](join(Big, Small))"),
            parse_ra("project[c](join(Big, Small))"),
        ]
        self.selections = [parse_ra(f"project[a](select[b = '{b}'](Big))") for b in b_pool]
        self.unions = [
            parse_ra(
                f"union(project[a](select[c = '{c}'](join(Big, Small))), "
                f"project[a](select[b = '{b}'](Big)))"
            )
            for b, c in zip(b_pool, c_pool)
        ]
        self.queries = self.fixed + self.selections + self.unions

    def database(self, version: int) -> Database:
        return fresh_database(
            {"Big": (("a", "b"), self.versions[version]), "Small": (("b", "c"), self.small)}
        )

    def deck(self, rng: random.Random, mix: Dict[str, int]) -> List[int]:
        """Indexes into ``queries`` for one round of reads, in a seeded order.

        ``mix`` counts the reads of each kind, so every seed runs the same
        mix; the constants of a selection or union come from the seeded pool.
        """
        pool = len(self.selections)
        kinds = {
            "join_a": lambda: 0,
            "join_c": lambda: 1,
            "selection": lambda: 2 + rng.randrange(pool),
            "union": lambda: 2 + pool + rng.randrange(pool),
        }
        indexes = [kinds[kind]() for kind, count in mix.items() for _ in range(count)]
        rng.shuffle(indexes)
        return indexes

    def references(self) -> List[List[frozenset]]:
        """Answers of every query on every version from the interpreter engine."""
        references = []
        for version in range(len(self.versions)):
            with repro.connect(self.database(version), engine="interpreter") as oracle:
                answers = [oracle.query(q).certain().rows for q in self.queries]
            for query, rows in zip(self.queries, answers):
                if not rows:
                    raise GuardError(f"empty reference answer for {query!r} on version {version}")
            references.append(answers)
        return references


def fold_server_counters(total: Dict[str, float], server: Server) -> None:
    """Add a server's counters, and its queue-wait histogram as two counters."""
    metrics = server.stats()["metrics"]
    for name, value in metrics["counters"].items():
        total[name] = total.get(name, 0) + value
    wait = metrics["histograms"].get("serve.queue_wait", {"count": 0, "sum": 0.0})
    total["serve.queue_wait.count"] = total.get("serve.queue_wait.count", 0) + wait["count"]
    total["serve.queue_wait.sum"] = total.get("serve.queue_wait.sum", 0.0) + wait["sum"]


def plan_cache_misses(server: Server) -> float:
    return server.stats()["metrics"]["counters"].get("plan_cache.misses", 0)


class ServeJoin(Workload):
    """Two async clients against ``Server(engine="plan")`` over Big/Small."""

    name = "serve_join"

    def __init__(self, seed: int, sizes: Dict[str, Any]) -> None:
        super().__init__(seed, sizes)
        self.instance = JoinInstance(self.rng, sizes)
        self.retired: Dict[str, float] = {}

    def prepare(self, rec: Recorder) -> None:
        self.refs = self.instance.references()
        with repro.connect(self.instance.database(0), engine="plan") as session:
            for query in self.instance.queries:
                guard_explain(
                    session.query(query),
                    ("engine: plan", "certain(): naive evaluation", "HashJoin" if "join" in repr(query).lower() else "Scan"),
                    self.name,
                )
        # The Server is warmed with every query the clients send, so a
        # read must never compile: a frozen plan cache compiles a miss on
        # every request without keeping it.
        server = self._server(self.instance.database(0), None)
        try:
            before = plan_cache_misses(server)
            for query, reference in zip(self.instance.queries, self.refs[0]):
                if asyncio.run(server.certain(query)).rows != reference:
                    raise GuardError(f"{self.name}: wrong answer from the warmed Server for {query!r}")
            if plan_cache_misses(server) != before:
                raise GuardError(f"{self.name}: a read missed the warmed Server's plan cache")
        finally:
            server.close()

    def _server(self, database: Database, tracer: Any) -> Server:
        return Server(
            database,
            engine="plan",
            pool_size=2,
            warm=self.instance.queries,
            tracer=tracer,
        )

    def inputs(self) -> Database:
        return self.instance.database(0)

    def setup(self, database: Database, tracer: Any = None) -> Dict[str, Any]:
        server = self._server(database, tracer)
        answer = asyncio.run(server.certain(self.instance.fixed[0]))
        return {"server": server, "version": 0, "first_ok": answer.rows == self.refs[0][0]}

    def sessions(self, live: Dict[str, Any]) -> List[Any]:
        return [live["server"].frozen_session]

    def counters(self, live: Dict[str, Any]) -> Dict[str, float]:
        total = dict(self.retired)
        fold_server_counters(total, live["server"])
        return total

    def close(self, live: Dict[str, Any]) -> None:
        live["server"].close()

    def window(
        self,
        live: Dict[str, Any],
        seconds: float,
        rec: Recorder,
        tracer: Any = None,
        between: Optional[Callable[[], None]] = None,
    ) -> None:
        """Phases until ``seconds`` have passed, each on its own event loop.

        ``between`` runs outside any event loop, so it may start one.
        """
        deadline = time.perf_counter() + seconds
        clients = [(random.Random(f"{self.name}:{self.seed}:client{i}"), []) for i in range(2)]
        while time.perf_counter() < deadline:
            asyncio.run(self._phase(live, clients, rec, tracer))
            if between is not None:
                between()

    async def _phase(
        self, live: Dict[str, Any], clients: List[Tuple[random.Random, List[int]]], rec: Recorder, tracer: Any
    ) -> None:
        """A version swap, then both clients' closed loops over the next reads of their decks."""
        await self._swap(live, rec, tracer)
        started = time.perf_counter()
        await asyncio.gather(*(self._client(live, rng, deck, rec, tracer) for rng, deck in clients))
        rec.add_busy(started, time.perf_counter())

    async def _swap(self, live: Dict[str, Any], rec: Recorder, tracer: Any) -> None:
        """A new version is published by building and warming a new Server.

        The Server is immutable by design, so this is its only update path.
        """
        version = (live["version"] + 1) % len(self.instance.versions)
        database = self.instance.database(version)
        query = self.instance.fixed[0]
        scope = tracer.span("bench.write", op="server") if tracer is not None else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with scope:
                server = self._server(database, tracer)
                answer = await server.certain(query)
        except Exception:
            rec.add_busy(started, time.perf_counter())
            rec.error("serve_join swap")
            return
        ended = time.perf_counter()
        rec.add_busy(started, ended)
        rec.after_op()
        old = live["server"]
        fold_server_counters(self.retired, old)
        old.close()
        live["server"] = server
        live["version"] = version
        if answer.rows == self.refs[version][0]:
            rec.ok("write", started, ended)
        else:
            rec.mismatch(f"serve_join swap to version {version}")

    async def _client(
        self, live: Dict[str, Any], rng: random.Random, deck: List[int], rec: Recorder, tracer: Any
    ) -> None:
        """``reads_per_phase`` reads from the client's deck, refilled with the whole mix when empty."""
        server = live["server"]
        references = self.refs[live["version"]]
        for _ in range(self.sizes["reads_per_phase"]):
            if not deck:
                deck.extend(self.instance.deck(rng, self.sizes["read_mix"]))
            index = deck.pop()
            query = self.instance.queries[index]
            scope = tracer.span("bench.read", op=index) if tracer is not None else contextlib.nullcontext()
            started = time.perf_counter()
            try:
                with scope:
                    answer = await server.certain(query)
            except Exception:
                rec.error(f"serve_join read {index}")
                continue
            ended = time.perf_counter()
            if answer.rows == references[index]:
                rec.ok("read", started, ended)
            else:
                rec.mismatch(f"serve_join read {index}")


class SqliteReload(Workload):
    """Version swaps through ``replace_database`` beside reads, one client."""

    name = "sqlite_reload"

    def __init__(self, seed: int, sizes: Dict[str, Any]) -> None:
        super().__init__(seed, sizes)
        self.instance = JoinInstance(self.rng, sizes)

    def prepare(self, rec: Recorder) -> None:
        self.refs = self.instance.references()
        with repro.connect(self.instance.database(0), engine="sqlite") as session:
            for query in self.instance.queries:
                handle = session.query(query)
                guard_explain(handle, ("engine: sqlite", "certain(): naive evaluation", "SELECT"), self.name)
                if "n/a" in handle.explain().split("\nsql:", 1)[1]:
                    raise GuardError(f"{self.name}: {query!r} is outside the SQL fragment")

    def inputs(self) -> Database:
        return self.instance.database(0)

    def setup(self, database: Database, tracer: Any = None) -> Dict[str, Any]:
        session = repro.connect(database, engine="sqlite", tracer=tracer)
        answer = session.query(self.instance.fixed[0]).certain()
        return {"session": session, "version": 0, "first_ok": answer.rows == self.refs[0][0]}

    def sessions(self, live: Dict[str, Any]) -> List[Any]:
        return [live["session"]]

    def cycle(self, live: Dict[str, Any], rec: Recorder, tracer: Any = None) -> None:
        session = live["session"]
        version = (live["version"] + 1) % len(self.instance.versions)
        database = self.instance.database(version)
        references = self.refs[version]
        run_op(
            rec, "write", f"swap to version {version}",
            lambda: session.query(self.instance.fixed[0], database=database).certain(),
            same_rows(references[0]), tracer,
        )
        live["version"] = version
        for index in self.instance.deck(self.rng, self.sizes["read_mix"]):
            run_op(
                rec, "read", f"certain {index}",
                lambda: session.query(self.instance.queries[index], database=database).certain(),
                same_rows(references[index]), tracer,
            )
        run_op(
            rec, "read", "cursor",
            lambda: list(session.query(self.instance.fixed[1], database=database).cursor()),
            lambda rows: len(rows) == len(references[1]) and set(rows) == references[1],
            tracer,
        )


# ----------------------------------------------------------------------
# enum_worlds: CWA difference queries and a forced OWA enumeration
# ----------------------------------------------------------------------
class EnumWorlds(Workload):
    """World enumeration on small instances: difference queries under CWA."""

    name = "enum_worlds"

    def __init__(self, seed: int, sizes: Dict[str, Any]) -> None:
        super().__init__(seed, sizes)
        self.cwa_versions = [self._cwa_rows() for _ in range(sizes["versions"])]
        self.owa_versions = [self._owa_rows() for _ in range(sizes["versions"])]
        self.diff_keys = parse_ra("diff(project[a](R), S)")
        self.diff_values = parse_ra("diff(project[b](R), T)")
        self.owa_query = parse_ra("project[p](P)")
        self.deck: List[int] = []

    def _cwa_rows(self) -> Dict[str, Tuple[Tuple[str, ...], List[tuple]]]:
        """R(a, b): ``keys`` rows, one with a null key and one with a null value.

        S and T filter R's own keys and values and every constant is
        distinct, so the domain is 2 * (keys - 1) constants plus nulls + 1
        fresh ones, and the world count is fixed by the sizes.
        """
        keys = self.sizes["keys"]
        tag = self.rng.randrange(10**6)
        names = [f"k{tag}_{i}" for i in range(keys)]
        values = [f"v{tag}_{i}" for i in range(keys)]
        self.rng.shuffle(values)
        rows: List[tuple] = [(names[i], values[i]) for i in range(keys - 2)]
        rows.append((names[keys - 2], Null("x")))
        rows.append((Null("y"), values[keys - 1]))
        filters = self.sizes["filter_rows"]
        used_names = [a for a, _ in rows if isinstance(a, str)]
        used_values = [b for _, b in rows if isinstance(b, str)]
        return {
            "R": (("a", "b"), rows),
            "S": (("a",), [(k,) for k in self.rng.sample(used_names, filters)]),
            "T": (("b",), [(v,) for v in self.rng.sample(used_values, filters)]),
        }

    def _owa_rows(self) -> Dict[str, Tuple[Tuple[str, ...], List[tuple]]]:
        tag = self.rng.randrange(10**6)
        rows: List[tuple] = [(f"p{tag}_{i}", f"q{tag}_{i}") for i in range(self.sizes["owa_rows"])]
        slot = self.rng.randrange(len(rows))
        rows[slot] = (rows[slot][0], Null("z"))
        return {"P": (("p", "q"), rows)}

    def _ops(self, live: Dict[str, Any]) -> List[Tuple[str, Callable[[], Any], Callable[[Any], bool]]]:
        cwa, owa = live["cwa"], live["owa"]
        cwa_db, owa_db = live["cwa_db"], live["owa_db"]
        refs = self.refs[live["version"]]
        return [
            ("certain diff keys", lambda: cwa.query(self.diff_keys, database=cwa_db).certain(), same_rows(refs[0])),
            ("certain diff values", lambda: cwa.query(self.diff_values, database=cwa_db).certain(), same_rows(refs[1])),
            # Certain answers non-empty implies the answer is non-empty in
            # every world, so the reference of boolean() is True.
            ("boolean diff keys", lambda: cwa.query(self.diff_keys, database=cwa_db).boolean(), lambda answer: answer is True),
            (
                "owa enumeration",
                lambda: owa.query(self.owa_query, database=owa_db).certain(
                    method="enumeration", max_extra_facts=self.sizes["owa_extra_facts"]
                ),
                same_rows(refs[2]),
            ),
        ]

    def prepare(self, rec: Recorder) -> None:
        self.refs = []
        for version in range(self.sizes["versions"]):
            cwa_db = fresh_database(self.cwa_versions[version])
            owa_db = fresh_database(self.owa_versions[version])
            with repro.connect(cwa_db, engine="interpreter") as cwa, repro.connect(
                owa_db, engine="interpreter", semantics="owa"
            ) as owa:
                refs = [
                    cwa.query(self.diff_keys).certain().rows,
                    cwa.query(self.diff_values).certain().rows,
                    owa.query(self.owa_query).certain(
                        method="enumeration", max_extra_facts=self.sizes["owa_extra_facts"]
                    ).rows,
                ]
            if not all(refs):
                raise GuardError(f"{self.name}: empty reference answer on version {version}")
            self.refs.append(refs)
        domain = default_domain(fresh_database(self.cwa_versions[0]))
        if len(domain) != self.sizes["cwa_domain"] or count_cwa_worlds(
            fresh_database(self.cwa_versions[0]), domain
        ) != self.sizes["cwa_worlds_per_op"]:
            raise GuardError(f"{self.name}: the CWA instance does not have the recorded domain")
        live = self.setup(self.inputs())
        try:
            for query in (self.diff_keys, self.diff_values):
                guard_explain(
                    live["cwa"].query(query),
                    ("engine: plan; semantics: cwa", "certain(): world enumeration"),
                    self.name,
                )
            guard_explain(live["owa"].query(self.owa_query), ("engine: plan; semantics: owa",), self.name)
            # The OWA op forces enumeration although naive evaluation would
            # apply; check that worlds were really evaluated.
            before = live["owa"].metrics()["counters"].get("worlds.evaluated", 0)
            self._ops(live)[3][1]()
            if live["owa"].metrics()["counters"].get("worlds.evaluated", 0) <= before:
                raise GuardError(f"{self.name}: the OWA op evaluated no worlds")
        finally:
            self.close(live)

    def inputs(self) -> Tuple[Database, Database]:
        return fresh_database(self.cwa_versions[0]), fresh_database(self.owa_versions[0])

    def setup(self, inputs: Tuple[Database, Database], tracer: Any = None) -> Dict[str, Any]:
        cwa_db, owa_db = inputs
        cwa = repro.connect(cwa_db, tracer=tracer)
        owa = repro.connect(owa_db, semantics="owa", tracer=tracer)
        answer = cwa.query(self.diff_keys).certain()
        return {
            "cwa": cwa, "owa": owa, "cwa_db": cwa_db, "owa_db": owa_db, "version": 0,
            "first_ok": answer.rows == self.refs[0][0],
        }

    def sessions(self, live: Dict[str, Any]) -> List[Any]:
        return [live["cwa"], live["owa"]]

    def cycle(self, live: Dict[str, Any], rec: Recorder, tracer: Any = None) -> None:
        version = (live["version"] + 1) % self.sizes["versions"]
        live["cwa_db"] = fresh_database(self.cwa_versions[version])
        live["owa_db"] = fresh_database(self.owa_versions[version])
        live["version"] = version
        ops = self._ops(live)
        label, call, check = ops[0]
        run_op(rec, "write", f"swap to version {version}", call, check, tracer)
        # A cycle runs the next reads of a shuffled deck holding the whole
        # mix, so the mix is exact over every deck and writes stay frequent.
        for _ in range(self.sizes["reads_per_cycle"]):
            if not self.deck:
                mix = self.sizes["read_mix"]
                self.deck = [index for index, (label, _, _) in enumerate(ops) for _ in range(mix[label])]
                self.rng.shuffle(self.deck)
            label, call, check = ops[self.deck.pop()]
            run_op(rec, "read", label, call, check, tracer)


# ----------------------------------------------------------------------
# prob_lineage: exact confidence over a pc-table with shared nulls
# ----------------------------------------------------------------------
def oracle_confidences(query: Any, database: Database, model: Any, given: Any = None) -> Dict[tuple, float]:
    """Answer probabilities by evaluating ``query`` in every world of ``model``."""
    answers: Dict[tuple, float] = {}
    mass = 0.0
    for assignment, probability in model.joint_outcomes(model.nulls()):
        valuation = Valuation(assignment)
        if given is not None and not given.evaluate(valuation):
            continue
        mass += probability
        for row in naive_evaluate(query, valuation.apply(database)):
            answers[row] = answers.get(row, 0.0) + probability
    return {row: p / mass for row, p in answers.items() if p / mass > PROB_TOLERANCE}


def same_confidences(reference: Dict[tuple, float]) -> Callable[[Any], bool]:
    def check(ranked: Any) -> bool:
        answer = {row: float(p) for row, p in ranked}
        return answer.keys() == reference.keys() and all(
            abs(answer[row] - p) <= PROB_TOLERANCE for row, p in reference.items()
        )

    return check


class ProbLineage(Workload):
    """``confidence()`` on a pc-table whose rows share three-valued nulls."""

    name = "prob_lineage"

    def __init__(self, seed: int, sizes: Dict[str, Any]) -> None:
        super().__init__(seed, sizes)
        self.nulls = [Null(f"u{i}") for i in range(sizes["nulls"])]
        self.model, self.versions, self.s_rows, a_values = self._instance(
            self.nulls, sizes["r_rows"], sizes["versions"]
        )
        picks = self.rng.sample(a_values, 8)
        self.joins = [parse_ra(f"project[c](join(select[a = '{a}'](R), S))") for a in picks[:6]]
        self.pair = parse_ra(f"project[a](join(select[a = '{picks[6]}' or a = '{picks[7]}'](R), S))")
        self.diff = parse_ra("diff(project[b](S), project[b](R))")
        null = self.rng.choice(self.nulls)
        self.constraint = Eq(null, self.rng.choice(sorted(self.model.marginal(null))))
        # (label, query, conditioned?) in op-index order.
        self.queries = [(f"join {i}", q, False) for i, q in enumerate(self.joins)]
        self.queries += [("pair", self.pair, False), ("diff", self.diff, False), ("conditioned", self.joins[0], True)]
        self.labels = [label for label, _, _ in self.queries]
        # The first answer after connecting or swapping versions: the
        # difference query reads all of R and S, so its lineage covers
        # every null whatever the seed picked for the join-projects.
        self.first = self.labels.index("diff")

    def _instance(self, nulls: List[Null], r_rows: int, versions: int) -> Tuple[Any, List[List[tuple]], List[tuple], List[str]]:
        """R(a, b): ten distinct b slots per a, a share of them nulls; S(b, c)."""
        sizes = self.sizes
        rng = self.rng
        tag = rng.randrange(10**6)
        common = [f"b{tag}_{i}" for i in range(sizes["b_common"])]
        rare = [f"r{tag}_{i}" for i in range(sizes["b_rare"])]
        joined = common[: len(common) * 2 // 5] + rare
        s_rows = [(b, f"c{rng.randrange(sizes['c_domain'])}") for b in joined]
        support_pool = common[len(common) * 2 // 5:] + rare
        weights = (0.5, 0.3, 0.2)
        model = repro.ProbabilityModel(
            independent={
                null: dict(zip(rng.sample(support_pool, sizes["null_support"]), weights))
                for null in nulls
            }
        )
        slots = 10
        a_values = [f"a{tag}_{i}" for i in range(r_rows // slots)]
        per_a_nulls = round(slots * sizes["null_share"])

        def rows_for(a: str) -> List[tuple]:
            bs: List[Any] = rng.sample(nulls, per_a_nulls) + rng.sample(common, slots - per_a_nulls)
            return [(a, b) for b in bs]

        base = [rows_for(a) for a in a_values]
        all_versions = [base]
        resample = max(1, round(len(a_values) * 0.05))
        for _ in range(1, versions):
            groups = list(all_versions[-1])
            for index in rng.sample(range(len(a_values)), resample):
                groups[index] = rows_for(a_values[index])
            all_versions.append(groups)
        flat = [[row for group in groups for row in group] for groups in all_versions]
        return model, flat, s_rows, a_values

    def database(self, version: int) -> Database:
        return fresh_database({"R": (("a", "b"), self.versions[version]), "S": (("b", "c"), self.s_rows)})

    def _run(self, session: Any, index: int, database: Optional[Database]) -> Any:
        _, query, conditioned = self.queries[index]
        handle = session.query(query, database=database)
        if conditioned:
            handle = handle.condition_on(self.constraint)
        return handle.confidence()

    def prepare(self, rec: Recorder) -> None:
        self.refs = []
        for version in range(len(self.versions)):
            with repro.connect(self.database(version), semantics="prob", model=self.model) as fresh:
                refs = [{row: float(p) for row, p in self._run(fresh, i, None)} for i in range(len(self.queries))]
            if not all(refs):
                raise GuardError(f"{self.name}: empty reference answer on version {version}")
            self.refs.append(refs)
        with repro.connect(self.database(0), semantics="prob", model=self.model) as session:
            for _, query, _ in self.queries:
                guard_explain(
                    session.query(query),
                    ("engine: plan; semantics: prob", "confidence(): exact decomposition"),
                    self.name,
                )
        self.oracle_check(rec)

    def oracle_check(self, rec: Recorder) -> None:
        """Exact confidence against brute-force enumeration on a small instance.

        A mismatch counts as a wrong answer; it does not abort the run.
        """
        nulls = [Null(f"o{i}") for i in range(self.sizes["oracle_nulls"])]
        model, versions, s_rows, a_values = self._instance(nulls, self.sizes["oracle_rows"], 1)
        database = fresh_database({"R": (("a", "b"), versions[0]), "S": (("b", "c"), s_rows)})
        constraint = Eq(nulls[0], sorted(model.marginal(nulls[0]))[0])
        cases = [
            (parse_ra(f"project[c](join(select[a = '{a_values[0]}'](R), S))"), None),
            (parse_ra(f"project[a](join(select[a = '{a_values[0]}' or a = '{a_values[1]}'](R), S))"), None),
            (self.diff, None),
            (parse_ra(f"project[c](join(select[a = '{a_values[1]}'](R), S))"), constraint),
        ]
        with repro.connect(database, semantics="prob", model=model) as session:
            for query, given in cases:
                handle = session.query(query)
                if given is not None:
                    handle = handle.condition_on(given)
                expected = oracle_confidences(query, database, model, given)
                rec.check(
                    bool(expected) and same_confidences(expected)(handle.confidence()),
                    f"oracle check {query!r}",
                )

    def inputs(self) -> Database:
        return self.database(0)

    def setup(self, database: Database, tracer: Any = None) -> Dict[str, Any]:
        session = repro.connect(database, semantics="prob", model=self.model, tracer=tracer)
        answer = self._run(session, self.first, None)
        return {"session": session, "version": 0, "first_ok": same_confidences(self.refs[0][self.first])(answer)}

    def sessions(self, live: Dict[str, Any]) -> List[Any]:
        return [live["session"]]

    def cycle(self, live: Dict[str, Any], rec: Recorder, tracer: Any = None) -> None:
        session = live["session"]
        version = (live["version"] + 1) % len(self.versions)
        database = self.database(version)
        refs = self.refs[version]
        live["version"] = version
        run_op(
            rec, "write", f"swap to version {version}",
            lambda: self._run(session, self.first, database), same_confidences(refs[self.first]), tracer,
        )
        mix = self.sizes["read_mix"]
        deck = [self.rng.randrange(len(self.joins)) for _ in range(mix["join"])]
        for label in ("pair", "diff", "conditioned"):
            deck += [self.labels.index(label)] * mix[label]
        self.rng.shuffle(deck)
        for index in deck:
            run_op(
                rec, "read", self.queries[index][0],
                lambda: self._run(session, index, database), same_confidences(refs[index]), tracer,
            )


WORKLOADS = {cls.name: cls for cls in (ServeJoin, SqliteReload, EnumWorlds, ProbLineage)}
