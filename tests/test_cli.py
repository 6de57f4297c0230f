import json
import os

import numpy as np
import pytest

from pathrep.cli import main
from pathrep.graph import load_features, save_features


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> features -> negatives -> train -> embed once."""
    root = tmp_path_factory.mktemp("pipe")
    data = str(root / "data")
    assert main(["synth", "--grid", "4x4", "--paths", "30", "--seed", "7",
                 "--out", data]) == 0
    feats = os.path.join(data, "features.txt")
    assert main(["features", "--graph", f"{data}/graph.csv", "--dim", "6",
                 "--epochs", "1", "--walks", "3", "--seed", "7",
                 "--out", feats]) == 0
    negs = os.path.join(data, "negatives.jsonl")
    assert main(["negatives", "--graph", f"{data}/graph.csv",
                 "--paths", f"{data}/paths.txt", "--k", "4",
                 "--tau1", "0.6", "--tau2", "0.9", "--seed", "7",
                 "--out", negs]) == 0
    ckpt = str(root / "ckpt")
    assert main(["train", "--graph", f"{data}/graph.csv", "--features", feats,
                 "--paths", f"{data}/paths.txt", "--negatives", negs,
                 "--epochs", "2", "--dim-out", "6", "--seed", "7",
                 "--out", ckpt]) == 0
    emb = os.path.join(data, "embeddings.txt")
    assert main(["embed", "--ckpt", ckpt, "--graph", f"{data}/graph.csv",
                 "--features", feats, "--paths", f"{data}/paths.txt",
                 "--out", emb]) == 0
    return root, data, feats, negs, ckpt, emb


def test_synth_outputs_and_manifest(pipeline):
    _, data, *_ = pipeline
    for name in ("graph.csv", "paths.txt", "labels.csv", "manifest_synth.json"):
        assert os.path.exists(os.path.join(data, name))
    manifest = json.load(open(os.path.join(data, "manifest_synth.json")))
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 7
    assert len(manifest["outputs"]) == 3


def test_negatives_records(pipeline):
    _, data, _, negs, _, _ = pipeline
    records = [json.loads(line) for line in open(negs)]
    assert len(records) == 30
    for rec in records:
        assert len(rec["negatives"]) == 4
        assert rec["overlaps"] == sorted(rec["overlaps"])


def test_negatives_manifest_counters(pipeline):
    _, data, *_ = pipeline
    manifest = json.load(open(os.path.join(data, "manifest_negatives.json")))
    records = [json.loads(line) for line in open(os.path.join(data, "negatives.jsonl"))]
    assert manifest["counters"] == {
        "backfilled_sets": sum(rec["backfilled"] for rec in records),
        "search_limit_od": 0}


def _corrupt(records, case):
    if case == "non-edge hop":
        records[3]["negatives"][0] = records[3]["negatives"][0][::2]
    elif case == "unknown node":
        records[3]["negatives"][1][-1] = 999
    elif case == "missing record":
        del records[3]
    else:
        del records[-1]
    return records


@pytest.mark.parametrize("case,message", [
    ("non-edge hop", "record 3: MissingEdge"),
    ("unknown node", "record 3: PathError: unknown node 999"),
    ("missing record", "record 3: ValueError: path_id 4"),
    ("missing last record", "29 records for 30 corpus paths"),
])
def test_train_rejects_corrupt_negatives(pipeline, tmp_path, capsys, case, message):
    root, data, feats, negs, _, _ = pipeline
    records = [json.loads(line) for line in open(negs)]
    bad = str(tmp_path / "negatives.jsonl")
    with open(bad, "w") as fh:
        for rec in _corrupt(records, case):
            fh.write(json.dumps(rec) + "\n")
    assert main(["train", "--graph", f"{data}/graph.csv", "--features", feats,
                 "--paths", f"{data}/paths.txt", "--negatives", bad,
                 "--epochs", "1", "--dim-out", "4", "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{bad}: {message}" in err


def test_train_losstrace(pipeline):
    root, *_ = pipeline
    lines = open(root / "ckpt" / "losstrace.csv").read().splitlines()
    assert lines[0] == "epoch,global,local,joint,stage"
    assert len(lines) == 3


def test_embed_shape(pipeline):
    *_, emb = pipeline
    table = load_features(emb)
    assert table.shape == (30, 6)


def test_eval_travel_time_and_ranking(pipeline, capsys):
    _, data, *_ , emb = pipeline
    assert main(["eval", "--embeddings", emb, "--labels", f"{data}/labels.csv",
                 "--task", "travel-time"]) == 0
    assert "MAE=" in capsys.readouterr().out
    assert main(["eval", "--embeddings", emb, "--labels", f"{data}/labels.csv",
                 "--task", "ranking", "--regressor", "gp"]) == 0
    assert "tau=" in capsys.readouterr().out


def test_eval_perfect_embeddings_zero_mae(tmp_path, pipeline, capsys):
    # embeddings that linearly encode the target: ridge test MAE ~ 0
    _, data, *_ = pipeline
    labels = f"{data}/labels.csv"
    times = [float(l.split(",")[1]) for l in open(labels).read().splitlines()[1:]]
    emb_file = str(tmp_path / "perfect.txt")
    save_features(np.array(times).reshape(-1, 1), emb_file)
    out = str(tmp_path / "report.csv")
    assert main(["eval", "--embeddings", emb_file, "--labels", labels,
                 "--task", "travel-time", "--out", out]) == 0
    line = capsys.readouterr().out
    mae = float(line.split("MAE=")[1].split()[0])
    assert mae < 1e-6
    assert os.path.exists(out)


def test_finetune_subcommand(pipeline, tmp_path):
    root, data, feats, _, ckpt, _ = pipeline
    out = str(tmp_path / "sup")
    assert main(["finetune", "--ckpt", ckpt, "--graph", f"{data}/graph.csv",
                 "--features", feats, "--paths", f"{data}/paths.txt",
                 "--labels", f"{data}/labels.csv", "--epochs", "2",
                 "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "params.bin"))


def test_ablate_mi_mode(pipeline, tmp_path, capsys):
    _, data, feats, *_ = pipeline
    out = str(tmp_path / "ablation.csv")
    assert main(["ablate", "--axis", "mi-mode", "--graph", f"{data}/graph.csv",
                 "--features", feats, "--paths", f"{data}/paths.txt",
                 "--labels", f"{data}/labels.csv", "--seeds", "0",
                 "--epochs", "1", "--dim-out", "4", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "variant,mae"
    assert [l.split(",")[0] for l in lines[1:]] == ["global", "local", "joint"]


def test_synth_reproducible_bytes(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert main(["synth", "--grid", "3x3", "--paths", "10", "--seed", "3",
                     "--out", out]) == 0
    for name in ("graph.csv", "paths.txt", "labels.csv"):
        assert open(os.path.join(a, name), "rb").read() == \
            open(os.path.join(b, name), "rb").read()


def test_missing_file_exits_nonzero(tmp_path, capsys):
    assert main(["features", "--graph", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "f.txt")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_config_file_with_flag_precedence(tmp_path, pipeline):
    _, data, *_ = pipeline
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=5x5\npaths=12\nseed=9\n")
    out = str(tmp_path / "out")
    assert main(["synth", "--config", str(cfg), "--paths", "8",
                 "--out", out]) == 0
    # paths flag wins over config; grid comes from the file
    assert len(open(os.path.join(out, "paths.txt")).read().splitlines()) == 8
    g = open(os.path.join(out, "graph.csv")).read().splitlines()
    nodes = {int(x) for line in g for x in line.split(",")[:2]}
    assert len(nodes) == 25
