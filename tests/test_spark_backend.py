"""Spark backend correctness: PaSh-on-Spark output equals the sequential
shell semantics, byte for byte, for every benchmark script — plus DuckDB
oracle cross-checks for the query-shaped results.
"""
import random
import uuid

import pandas as pd
import pytest
from pyspark import StorageLevel
from pyspark.errors import PythonException

from repro.commands.base import CommandError, ExecEnv
from repro.compiler import compile_script, pash_seq, pash_spark, run_dfg_seq
from repro.dfg.transform import parallelize
from repro.oracle import assert_equivalent
from repro.runtime import split_chunks
from repro.runtime.naive_parallel import naive_parallel
from repro.runtime.stream import SparkStream
from repro.workloads import ONELINERS, UNIX50
from repro.workloads import noaa, webindex
from repro.workloads.inputs import text_corpus


def fresh(env):
    return ExecEnv(files=dict(env.files), ftypes=dict(env.ftypes))


@pytest.fixture(scope="module")
def corpus_env():
    return ExecEnv(files={
        "in.txt": text_corpus(4000, seed=0),
        "in2.txt": text_corpus(4000, seed=1),
    })


class TestStream:
    def test_from_lines_roundtrip(self, spark):
        lines = [f"l{i}" for i in range(100)]
        st = SparkStream.from_lines(spark, lines, 4)
        assert st.n_parts == 4
        assert st.collect_lines() == lines

    def test_empty_stream(self, spark):
        st = SparkStream.from_lines(spark, [])
        assert st.collect_lines() == [] and st.count() == 0

    def test_cat_preserves_order(self, spark):
        a = SparkStream.from_lines(spark, ["a1", "a2"], 2)
        b = SparkStream.from_lines(spark, ["b1"], 1)
        assert SparkStream.cat([a, b]).collect_lines() == ["a1", "a2", "b1"]

    def test_split_contiguous(self, spark):
        lines = [str(i) for i in range(103)]
        st = SparkStream.from_lines(spark, lines).split(4)
        assert st.n_parts == 4
        assert st.collect_lines() == lines
        parts = st.collect_parts()
        assert sorted(len(p) for p in parts) == [25, 26, 26, 26]
        assert sum(parts, []) == lines

    def test_per_chunk_fusion(self, spark):
        lines = ["b", "a", "c"] * 10
        st = SparkStream.from_lines(spark, lines, 3)
        out = st.per_chunk(lambda ls: [l.upper() for l in ls]) \
                .per_chunk(lambda ls: [l + "!" for l in ls])
        assert len(out.pending) == 2  # fused, not yet materialized
        assert out.collect_lines() == [l.upper() + "!" for l in lines]

    def test_aggregate_sees_ordered_parts(self, spark):
        lines = [str(i) for i in range(30)]
        st = SparkStream.from_lines(spark, lines, 3)
        agg = st.aggregate(lambda parts: [f"{len(parts)}:{parts[0][0]}:{parts[-1][-1]}"])
        assert agg.collect_lines() == ["3:0:29"]

    def test_split_of_split(self, spark):
        lines = [str(i) for i in range(50)]
        st = SparkStream.from_lines(spark, lines, 3).split(5)
        assert st.n_parts == 5 and st.collect_lines() == lines

    @pytest.mark.parametrize("n", [0, 1, 5, 103])
    def test_split_of_aggregate(self, spark, n):
        """The aggregator's output is cut where PaSh's split cuts, after
        the ingest clamps the width to the line count."""
        lines = [f"l{i}" for i in range(n)]
        st = SparkStream.from_lines(spark, lines, 3) \
            .aggregate(lambda parts: [l for p in parts for l in p]).split(4)
        try:
            assert st.collect_parts() == split_chunks(lines, max(1, min(4, n)))
        finally:
            SparkStream.release([st])


class TestIngest:
    @pytest.mark.parametrize("width", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 103])
    def test_chunks_match_split_chunks(self, spark, n, width):
        """Ingest cuts where PaSh's split does, after clamping the width to
        the line count (an empty input is one empty chunk)."""
        lines = [f"l{i}" for i in range(n)]
        st = SparkStream.from_lines(spark, lines, width)
        try:
            assert st.collect_parts() == split_chunks(lines, max(1, min(width, n)))
        finally:
            SparkStream.release([st])

    def test_map_over_ingest_is_one_job(self, spark):
        """Load and map fuse into a single stage: one job, one task per
        chunk, no shuffle in between."""
        sc = spark.sparkContext
        lines = [f"l{i}" for i in range(50)]
        st = SparkStream.from_lines(spark, lines, 3)
        group = f"ingest-{uuid.uuid4().hex}"
        sc.setJobGroup(group, "one job per ingest+map")
        try:
            out = st.per_chunk(lambda ls: [l.upper() for l in ls]).collect_lines()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
            SparkStream.release([st])
        assert out == [l.upper() for l in lines]
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        assert len(jobs) == 1
        stages = [tracker.getStageInfo(s) for s in tracker.getJobInfo(jobs[0]).stageIds]
        assert [s.numTasks for s in stages] == [3]


# P after P (a split) and ingest: every resource kind a call makes
HYGIENE_SCRIPT = 'cat in.txt | tr -cs A-Za-z "\\n" | sort | uniq -c | sort -rn | head -n 5'


class TestSessionHygiene:
    def test_pash_spark_leaves_conf_and_caller_cache(self, spark, corpus_env):
        key = "spark.sql.execution.arrow.maxRecordsPerBatch"
        conf0 = spark.conf.get(key, None)
        spark.conf.set(key, "777")
        mine = spark.range(100).persist()
        try:
            assert mine.count() == 100
            level0 = mine.storageLevel  # looked up in the session's cache
            assert level0 != StorageLevel.NONE
            persistent0 = len(spark.sparkContext._jsc.getPersistentRDDs())
            out = pash_spark(spark, HYGIENE_SCRIPT, fresh(corpus_env), width=3)
            assert out == pash_seq(HYGIENE_SCRIPT, fresh(corpus_env))
            assert spark.conf.get(key) == "777"
            assert mine.storageLevel == level0
            # the call's own persisted intermediates are gone again
            assert len(spark.sparkContext._jsc.getPersistentRDDs()) == persistent0
        finally:
            mine.unpersist()
            if conf0 is None:
                spark.conf.unset(key)
            else:
                spark.conf.set(key, conf0)

    def test_split_persists_nothing(self, spark, corpus_env, monkeypatch):
        """While a call runs, the session's persisted RDDs stay those the
        caller had: a split re-ingests instead of persisting. Recorded after
        each split and once the outputs are collected, before the call
        frees anything."""
        jsc = spark.sparkContext._jsc
        before = set(jsc.getPersistentRDDs().keySet())
        seen = []
        split, release = SparkStream.split, SparkStream.release

        def recording_split(st, width):
            out = split(st, width)
            seen.append(set(jsc.getPersistentRDDs().keySet()))
            return out

        def recording_release(streams):
            seen.append(set(jsc.getPersistentRDDs().keySet()))
            release(streams)

        monkeypatch.setattr(SparkStream, "split", recording_split)
        monkeypatch.setattr(SparkStream, "release", staticmethod(recording_release))
        out = pash_spark(spark, HYGIENE_SCRIPT, fresh(corpus_env), width=3)
        assert out == pash_seq(HYGIENE_SCRIPT, fresh(corpus_env))
        assert len(seen) > 1 and all(ids == before for ids in seen)

    # cat_of_aggregate: a cat ingests an aggregator's output again
    @pytest.mark.parametrize("entry", ["pash_spark", "naive_parallel", "cat_of_aggregate"])
    def test_call_destroys_its_broadcasts(self, spark, corpus_env, monkeypatch, entry):
        sc = spark.sparkContext
        made = []
        broadcast = sc.broadcast

        def recording(value):
            made.append(broadcast(value))
            return made[-1]

        monkeypatch.setattr(sc, "broadcast", recording)
        if entry == "pash_spark":
            pash_spark(spark, HYGIENE_SCRIPT, fresh(corpus_env), width=3)
        elif entry == "cat_of_aggregate":
            pash_spark(spark, "sort in.txt | cat - in2.txt", fresh(corpus_env), width=3)
        else:
            naive_parallel(spark, HYGIENE_SCRIPT, fresh(corpus_env),
                           input_file="in.txt", width=3)
        assert made
        assert [bc._jbroadcast.isValid() for bc in made] == [False] * len(made)


SPARK_SCRIPTS = [
    "cat in.txt | tr A-Z a-z | grep the",
    "cat in.txt | tr A-Z a-z | sort",
    'cat in.txt | tr -cs A-Za-z "\\n" | sort | uniq -c | sort -rn | head -n 5',
    "cat in.txt | tr A-Z a-z | sort | sort -r",
    "cat in.txt in2.txt | sort -u",
    "sort <(cat in.txt | grep the) <(grep of in2.txt)",
    "cat in.txt | sha1sum",
    "cat in.txt | grep -c the",
    'cat in.txt | tr -cs A-Za-z "\\n" | bigrams_aux | sort | uniq',
    "cat in.txt | tac | head -n 7",
    # an aggregator's output joined with a file by cat
    "sort in.txt | cat - in2.txt | tr a-z A-Z",
    "cat <(sort in.txt) in2.txt | grep w",
]


def spark_job_stages(spark, run):
    """Call ``run`` in a job group of its own; the stage ids of each Spark
    job it started, and the status tracker that knows them."""
    sc = spark.sparkContext
    group = f"plan-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "plan shape")
    try:
        run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    return [list(tracker.getJobInfo(j).stageIds)
            for j in tracker.getJobIdsForGroup(group)], tracker


def spark_jobs_and_tasks(spark, run):
    """The Spark jobs ``run`` started and the tasks of the stages that ran."""
    jobs, tracker = spark_job_stages(spark, run)
    stages = {s for ids in jobs for s in ids}
    tasks = sum(tracker.getStageInfo(s).numCompletedTasks for s in stages)
    return len(jobs), tasks


NOAA_YEAR = noaa.FULL.replace("{2015..2019}", "2015")

# Spark jobs and tasks of one NOAA year at width 3: a change here is a
# change of the plan, to be made on purpose
NOAA_YEAR_JOBS_TASKS = (3, 6)


class TestPlanShape:
    """The Spark plan of a region: pinned job and task counts, and the
    ``origin`` links the backend groups copies by."""

    @pytest.mark.parametrize("width", [2, 4])
    def test_map_aggregate_is_one_job(self, spark, corpus_env, width):
        script = "cat in.txt | tr A-Z a-z | sort"
        assert spark_jobs_and_tasks(spark, lambda: pash_spark(
            spark, script, fresh(corpus_env), width=width)) == (1, width)

    def test_noaa_year(self, spark):
        """Driver-side sources, ingest, map stages, aggregators and
        re-splits of one loop iteration of Fig. 2."""
        env = noaa.make_env(0.05)
        assert spark_jobs_and_tasks(spark, lambda: pash_spark(
            spark, NOAA_YEAR, fresh(env), width=3)) == NOAA_YEAR_JOBS_TASKS

    @pytest.mark.parametrize("script", SPARK_SCRIPTS + [NOAA_YEAR])
    def test_every_job_is_one_stage(self, spark, corpus_env, script):
        """No shuffle anywhere: each Spark job is one map stage over
        ingested chunks."""
        env = noaa.make_env(0.05) if script == NOAA_YEAR else corpus_env
        jobs, _ = spark_job_stages(spark, lambda: pash_spark(
            spark, script, fresh(env), width=3))
        assert [len(ids) for ids in jobs] == [1] * len(jobs)

    @pytest.mark.parametrize("script", SPARK_SCRIPTS + [noaa.FULL])
    def test_copies_name_their_origin(self, script):
        for step in compile_script(script).steps:
            if step.kind != "dfg":
                continue
            pg = parallelize(step.dfg, 3)
            for n in pg.nodes.values():
                if n.kind in ("map", "agg"):
                    orig = step.dfg.nodes[n.origin]
                    spec = n.agg_spec if n.kind == "agg" else n.resolved
                    assert orig.kind == "cmd" and spec is orig.resolved, (script, n)


class TestErrors:
    def test_command_error_matches_seq(self, spark):
        """A command failing inside a Spark task raises what seq raises."""
        script = "cat list.txt | xargs -L 1 wc -l"
        env = ExecEnv(files={"list.txt": ["in.txt", "missing.txt"], "in.txt": ["a"]})
        with pytest.raises(CommandError) as seq:
            pash_seq(script, fresh(env))
        with pytest.raises(CommandError) as par:
            pash_spark(spark, script, fresh(env), width=2)
        assert str(par.value) == str(seq.value) == "no such file: missing.txt"
        assert isinstance(par.value.__cause__, PythonException)


# a region that only reads a file; wc with a file operand; a wc map stage
# after a split into more chunks than there are lines; a split of an
# aggregator's output that has fewer lines than the width, or none
EDGE_SCRIPTS = ["cat in.txt", "wc -l in.txt", "wc in.txt",
                "cat in.txt | sort -u | wc -l",
                "cat in.txt | sort | uniq -c | sort -rn | head -n 1"]


@pytest.mark.parametrize("lines", [[], ["a", "a", "b a"]], ids=["empty", "three"])
@pytest.mark.parametrize("script", EDGE_SCRIPTS)
def test_edge_scripts(spark, script, lines):
    env = ExecEnv(files={"in.txt": lines})
    seq = pash_seq(script, fresh(env))
    [step] = compile_script(script).steps
    assert run_dfg_seq(parallelize(step.dfg, 3), fresh(env)) == seq
    assert pash_spark(spark, script, fresh(env), width=3) == seq


@pytest.mark.parametrize("width", [2, 7])
@pytest.mark.parametrize("script", SPARK_SCRIPTS)
def test_spark_equals_seq(spark, corpus_env, script, width):
    seq = pash_seq(script, fresh(corpus_env))
    par = pash_spark(spark, script, fresh(corpus_env), width=width)
    assert par == seq


@pytest.mark.parametrize("script", SPARK_SCRIPTS[:6])
def test_spark_nosplit_equals_seq(spark, corpus_env, script):
    seq = pash_seq(script, fresh(corpus_env))
    par = pash_spark(spark, script, fresh(corpus_env), width=4, enable_split=False)
    assert par == seq


ALL_WL = list(ONELINERS.items()) + list(UNIX50.items())


@pytest.mark.parametrize("name,wl", ALL_WL, ids=[n for n, _ in ALL_WL])
def test_workloads_on_spark(spark, name, wl):
    env = wl.make_env(0.004)
    seq = pash_seq(wl.script, fresh(env))
    par = pash_spark(spark, wl.script, fresh(env), width=4)
    assert par == seq


def test_noaa_on_spark(spark):
    env = noaa.make_env(0.05)
    seq = pash_seq(noaa.FULL, fresh(env))
    par = pash_spark(spark, noaa.FULL, fresh(env), width=3)
    assert par == seq


def test_webindex_on_spark(spark):
    env = webindex.make_env(0.02)
    seq = pash_seq(webindex.SCRIPT, fresh(env))
    par = pash_spark(spark, webindex.SCRIPT, fresh(env), width=3)
    assert par == seq


class TestOracle:
    """DuckDB cross-checks: the PaSh-on-Spark result, loaded as a
    DataFrame, must match the equivalent SQL over the raw input."""

    def _df(self, spark, lines, cols):
        return spark.createDataFrame(pd.DataFrame(cols(lines)))

    def test_grep_filter_oracle(self, spark, corpus_env):
        out = pash_spark(spark, "cat in.txt | grep the | sort -u",
                         fresh(corpus_env), width=4)
        got = spark.createDataFrame(pd.DataFrame({"line": out}))
        inp = pd.DataFrame({"line": corpus_env.files["in.txt"]})
        assert_equivalent(
            got,
            "SELECT DISTINCT line FROM inp WHERE line LIKE '%the%'",
            inp=inp,
        )

    def test_wc_count_oracle(self, spark, corpus_env):
        out = pash_spark(spark, "cat in.txt | grep the | wc -l",
                         fresh(corpus_env), width=4)
        got = spark.createDataFrame(pd.DataFrame({"n": [int(out[0])]}))
        inp = pd.DataFrame({"line": corpus_env.files["in.txt"]})
        assert_equivalent(
            got,
            "SELECT CAST(count(*) AS BIGINT) AS n FROM inp WHERE line LIKE '%the%'",
            inp=inp,
        )

    def test_word_histogram_oracle(self, spark, corpus_env):
        script = 'cat in.txt | tr -cs A-Za-z "\\n" | tr A-Z a-z | sort | uniq -c'
        out = pash_spark(spark, script, fresh(corpus_env), width=4)
        rows = [(int(l[:7]), l[8:]) for l in out]
        got = spark.createDataFrame(pd.DataFrame(rows, columns=["n", "word"]))
        inp = pd.DataFrame({"line": corpus_env.files["in.txt"]})
        assert_equivalent(
            got,
            """
            SELECT CAST(count(*) AS BIGINT) AS n, word FROM (
              SELECT lower(unnest(regexp_extract_all(line, '[A-Za-z]+'))) AS word
              FROM inp
            ) GROUP BY word
            """,
            inp=inp,
        )

    def test_sort_content_oracle(self, spark, corpus_env):
        out = pash_spark(spark, "cat in.txt | tr A-Z a-z | sort",
                         fresh(corpus_env), width=4)
        got = spark.createDataFrame(pd.DataFrame({"line": out}))
        inp = pd.DataFrame({"line": corpus_env.files["in.txt"]})
        assert_equivalent(got, "SELECT lower(line) AS line FROM inp", inp=inp)

    def test_noaa_max_oracle(self, spark):
        """The NOAA answer equals SQL MAX over the decoded raw records."""
        import base64
        import gzip

        env = noaa.make_env(0.05)
        out = pash_spark(spark, noaa.FULL, fresh(env), width=3)
        rows = []
        for l in out:
            year, temp = l.removeprefix("Maximum temperature for ").split(" is: ")
            rows.append((int(year), temp))
        got = spark.createDataFrame(pd.DataFrame(rows, columns=["year", "max_t"]))

        recs = []
        for name, content in env.files.items():
            if name.endswith(".gz"):
                year = int(name.split("/")[1])
                text = gzip.decompress(base64.b64decode(content[0])).decode()
                for rec in text.split("\n")[:-1]:
                    recs.append((year, rec[88:92]))
        raw = pd.DataFrame(recs, columns=["year", "t"])
        assert_equivalent(
            got,
            "SELECT year, max(t) AS max_t FROM raw "
            "WHERE t NOT LIKE '%999%' GROUP BY year",
            raw=raw,
        )
