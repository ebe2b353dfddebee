"""CSV sources + census/diabetes pipeline shapes (reference parity)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from diffdataflowmlpipelines_ray.pipelines.census import (
    census_encoder_config,
    run_census_pipeline,
)
from diffdataflowmlpipelines_ray.pipelines.diabetes import run_diabetes_pipeline
from diffdataflowmlpipelines_ray.sources.csv import (
    infer_csv_schema,
    read_csv_floats,
    read_csv_inferred,
)


@pytest.fixture()
def adult_like_csv(tmp_path):
    # mirrors data/adult_data.csv layout: mixed numeric/text, space-padded
    p = tmp_path / "adult.csv"
    p.write_text(
        "age,workclass,fnlwgt,education,edu-num,marital,occupation,relationship,"
        "race,sex,cap-gain,cap-loss,hours,country,salary\n"
        "39, State-gov,77516, Bachelors,13, Never-married, Adm-clerical,"
        " Not-in-family, White, Male,2174,0,40, United-States, <=50K\n"
        "50, Self-emp,83311, Bachelors,13, Married, Exec-managerial,"
        " Husband, White, Male,0,0,13, United-States, <=50K\n"
        "38, Private,215646, HS-grad,9, Divorced, Handlers-cleaners,"
        " Not-in-family, White, Male,0,0,40, United-States, <=50K\n"
    )
    return str(p)


class TestCsvSources:
    def test_inference(self, adult_like_csv):
        kinds = infer_csv_schema(adult_like_csv)
        assert kinds["age"] == "float"
        assert kinds["workclass"] == "text"
        assert kinds["salary"] == "text"

    def test_read_inferred(self, ray_session, adult_like_csv):
        ds = read_csv_inferred(adult_like_csv)
        rows = sorted(ds.take_all(), key=lambda r: r["fnlwgt"])
        assert rows[0]["age"] == 39.0
        assert rows[0]["workclass"] == "State-gov"  # trimmed
        assert rows[2]["fnlwgt"] == 215646.0

    def test_read_floats_sentinel(self, ray_session, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1.5, 2\nbad, 3.25\n")
        rows = read_csv_floats(str(p)).take_all()
        assert rows[0]["a"] == 1.5 and rows[0]["b"] == 2.0
        assert rows[1]["a"] == -1.0  # parse failure sentinel
        assert rows[1]["b"] == 3.25


class TestCensusPipeline:
    def test_config_and_run(self, ray_session, adult_like_csv):
        ds = read_csv_inferred(adult_like_csv)
        out, mce = run_census_pipeline(ds)
        # excluded {8,9,12,14}: race, sex, hours, salary are not encoded
        cols = [c for c, _ in mce.config]
        assert "race" not in cols and "sex" not in cols
        assert "hours" not in cols and "salary" not in cols
        assert "age" in cols and "workclass" in cols
        vecs = [r["features"] for r in out.take_all()]
        assert len(vecs) == 3
        assert all(len(v) == len(vecs[0]) for v in vecs)

    def test_numeric_passthrough_text_onehot(self, ray_session):
        ds = rd.from_arrow(pa.table({"num": [1.0, 2.0], "cat": ["a", "b"],
                                     "x2": [0.0, 1.0], "x3": [5, 6],
                                     "x4": [1, 2], "x5": [3, 4]}))
        mce = census_encoder_config(pa.schema([
            pa.field("num", pa.float64()), pa.field("cat", pa.string()),
        ]), excluded=())
        names = {type(e).__name__ for _, e in mce.config}
        assert names == {"Passthrough", "OneHotEncoder"}


class TestDiabetesPipeline:
    def test_incremental_equals_batch(self, ray_session, tmp_path):
        rng = np.random.default_rng(11)
        n, cols = 400, 5
        data = {f"c{i}": rng.normal(i, 2.0, n) for i in range(cols)}
        data["c0"] = (data["c0"] > 0).astype(float)  # binary label col
        tbl = pa.table(data)
        sess = run_diabetes_pipeline(tbl, tmp_path / "dia", init_fraction=0.8,
                                     update_epochs=3)
        got = sess.refresh()
        sess.close()
        # batch recompute
        from diffdataflowmlpipelines_ray.stages.encoders import StandardScaler
        from diffdataflowmlpipelines_ray.stages.multi_column import MultiColumnEncoder

        mce = MultiColumnEncoder(
            [(f"c{i}", StandardScaler(round_to=(-2, 0))) for i in range(cols)]
        )
        mce.fit(rd.from_arrow(tbl))
        exp = mce.transform_table(tbl, "features")
        np.testing.assert_allclose(
            np.array(got.sort_by("c1")["features"].to_pylist()),
            np.array(exp.sort_by("c1")["features"].to_pylist()),
        )


class TestDemoPresentation:
    def test_demo_shape_and_corrections(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.pipelines.demo import run_demo

        res = run_demo(str(tmp_path / "demo"), n_updates=5, verbose=False)
        assert res["base_rows"] == 30
        assert res["final_rows"] == 30
        # single-row epochs change the (rounded) meta → corrections emitted
        assert res["correction_rows"] > 0
        # every stateful encoder produced at least one meta event
        cols = {c for _, c in res["meta_events"]}
        assert cols == {"c0", "c1", "c2", "c3"}


