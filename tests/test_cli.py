import contextlib
import csv
import dataclasses
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bundle_edit import join_bundle, sign_payload, split_bundle
from dcom import cli, ingest
from dcom.cli import main, parse_config_file
from dcom.errors import ConfigError, DcomError
from dcom.features import FEATURE_NAMES
from dcom.infer import predict_kvote
from dcom.serialize import load_bundle, save_bundle
from dcom.train import EpochReport, train_model
from feature_oracle import oracle_features

CONFIG = """\
# sanity training configuration
config_version = 1
mode = "single"
embedding_dim = 16
hidden_size = 16
feature_dim = 16
dense_widths = [32]
epochs = 6
batch_size = 16
learning_rate = 0.003
vocab_budget = 300
max_len = 64
"""


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    spec = {"gender": "gender_codes", "description": "descriptions"}
    ingest.save_jsonl(ingest.generate_synthetic_corpus(spec, 30, seed=2), path)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_path):
    d = tmp_path_factory.mktemp("model")
    cfg = d / "cfg.toml"
    cfg.write_text(CONFIG)
    model = d / "model.dcom"
    split = d / "split.json"
    code = main([
        "train", "--data", str(corpus_path), "--config", str(cfg),
        "--out", str(model), "--split-out", str(split), "--seed", "1",
    ])
    assert code == 0
    return model, split


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg.toml"
        path.write_text(CONFIG)
        config = parse_config_file(path)
        assert config.mode == "single"
        assert config.dense_widths == (32,)
        assert config.learning_rate == 0.003

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.toml"
        path.write_text("config_version = 1\nnot_a_key = 3\n")
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config_file(path)

    def test_not_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "cfg.toml"
        path.write_bytes(b"config_version = 1\n\xff\xfe = 2\n")
        with pytest.raises(ConfigError, match=r"cfg\.toml:2: invalid UTF-8 byte 0xff"):
            parse_config_file(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "cfg.toml"
        path.write_text("config_version = 99\n")
        with pytest.raises(DcomError, match="config_version"):
            parse_config_file(path)


class TestSynth:
    def test_synth_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert main(["synth", "--out", str(out), "--n-per-class", "3", "--seed", "4"]) == 0
        instances, vocab = ingest.load_dataset(out, "jsonl")
        assert len(instances) == 3 * len(ingest.DEFAULT_CLASS_SPEC)
        assert len(vocab) == len(ingest.DEFAULT_CLASS_SPEC)


class TestTrainPredictEvaluate:
    def test_train_outputs(self, trained):
        model, split = trained
        assert model.exists() and split.exists()
        log = model.parent / (model.name + ".epochs.csv")
        rows = list(csv.DictReader(open(log)))
        assert len(rows) == 6
        assert set(rows[0]) >= {"epoch", "train_loss", "val_f1", "learning_rate"}

    def test_predict(self, trained, corpus_path, tmp_path):
        model, _ = trained
        out = tmp_path / "preds.jsonl"
        code = main(["predict", "--model", str(model), "--data", str(corpus_path),
                     "--out", str(out), "--k", "3", "--seed", "0"])
        assert code == 0
        records = [json.loads(line) for line in open(out)]
        assert len(records) == 60
        assert all({"source", "label", "confidence", "votes"} <= set(r) for r in records)
        assert all(sum(r["votes"].values()) == 3 for r in records)

    def test_evaluate(self, trained, corpus_path, tmp_path):
        model, split = trained
        out = tmp_path / "metrics.json"
        table = tmp_path / "per_class.csv"
        code = main(["evaluate", "--model", str(model), "--data", str(corpus_path),
                     "--split", str(split), "--k", "1", "--out", str(out),
                     "--table", str(table), "--seed", "0"])
        assert code == 0
        report = json.loads(out.read_text())
        assert 0.0 <= report["f1_weighted"] <= 1.0
        assert report["size_mb"] > 0
        rows = list(csv.DictReader(open(table)))
        assert {r["class"] for r in rows} == {"gender", "description"}

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_predict_equals_predict_kvote_per_column(self, mode, sanity_bundle,
                                                     sanity_multi_bundle, corpus_path,
                                                     tmp_path):
        bundle = sanity_bundle[0] if mode == "single" else sanity_multi_bundle
        model = tmp_path / "model.dcom"
        save_bundle(bundle, model)
        instances, _ = ingest.load_dataset(corpus_path, "jsonl")
        # 60 columns in chunks of batch_size 16: three full chunks and a short one
        assert len(instances) % bundle.training.batch_size > 0
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--model", str(model), "--data", str(corpus_path),
                     "--out", str(out), "--k", "10", "--seed", "5"]) == 0
        records = [json.loads(line) for line in open(out)]
        assert [r["source"] for r in records] == list(range(len(instances)))
        for i, (inst, record) in enumerate(zip(instances, records)):
            pred = predict_kvote(bundle, inst, k=10,
                                 seed=np.random.default_rng([5, i]).integers(2**63))
            assert (record["label"], record["votes"]) == (pred.label, pred.votes)
            assert record["confidence"] == pytest.approx(pred.probabilities.max(),
                                                         rel=0, abs=1e-12)

    def test_predict_empty_file(self, trained, tmp_path):
        model, _ = trained
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--model", str(model), "--data", str(empty),
                     "--out", str(out), "--k", "10"]) == 0
        assert out.read_bytes() == b""

    def test_predict_malformed_line_exit_2(self, trained, tmp_path, capsys):
        model, _ = trained
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"label":"x","values":["a"]}\n{oops\n')
        code = main(["predict", "--model", str(model), "--data", str(bad)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_end_to_end_determinism(self, trained, corpus_path, tmp_path):
        model, split = trained
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["evaluate", "--model", str(model), "--data", str(corpus_path),
                  "--split", str(split), "--k", "1", "--out", str(out), "--seed", "9"])
            report = json.loads(out.read_text())
            report.pop("runtime_mean_s")
            report.pop("runtime_std_s")
            outs.append(report)
        assert outs[0] == outs[1]


class TestAugmentCommand:
    def test_single_stream(self, corpus_path, tmp_path):
        out = tmp_path / "aug.jsonl"
        assert main(["augment", "--data", str(corpus_path), "--mode", "single",
                     "--out", str(out), "--seed", "1"]) == 0
        records = [json.loads(line) for line in open(out)]
        assert len(records) == 60
        assert all("text" in r and "r" in r for r in records)
        # values are written as given: a value holding " <SEP> " comes back whole
        data = tmp_path / "sep.jsonl"
        data.write_text(json.dumps({"label": "a", "values": ["x <SEP> y"]}) + "\n")
        assert main(["augment", "--data", str(data), "--mode", "single",
                     "--out", str(out)]) == 0
        [record] = [json.loads(line) for line in open(out)]
        assert record["values"] == ["x <SEP> y"]
        assert record["text"] == "x <SEP> y" and record["r"] == 1

    def test_multi_stream(self, corpus_path, tmp_path):
        out = tmp_path / "aug.jsonl"
        assert main(["augment", "--data", str(corpus_path), "--mode", "multi",
                     "--r", "6", "--out", str(out), "--seed", "1"]) == 0
        records = [json.loads(line) for line in open(out)]
        assert all(len(r["texts"]) == 6 and len(r["mask"]) == 6 for r in records)


class TestFeaturesDump:
    def test_dump_matches_oracle(self, corpus_path, tmp_path):
        out = tmp_path / "features.csv"
        assert main(["features", "dump", "--data", str(corpus_path),
                     "--out", str(out)]) == 0
        instances, _ = ingest.load_dataset(corpus_path, "jsonl")
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == len(instances)
        for row, inst in zip(rows[:10], instances[:10]):
            expected = oracle_features(list(inst.values))
            got = [float(row[name]) for name in FEATURE_NAMES]
            np.testing.assert_allclose(got, expected, atol=1e-9)


class TestExplainCommand:
    def test_explain(self, trained, tmp_path, capsys):
        model, _ = trained
        csv_out = tmp_path / "imp.csv"
        assert main(["explain", "--model", str(model), "--csv", str(csv_out)]) == 0
        assert "Rank" in capsys.readouterr().out
        assert len(csv_out.read_text().splitlines()) == 20


class TestInspectCommand:
    def test_inspect_prints_the_bundle(self, trained, capsys):
        model, _ = trained
        bundle = load_bundle(model)
        header, _ = split_bundle(model.read_bytes())
        assert main(["inspect", str(model)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "training": header["training"],
            "metadata": header["metadata"],
            "vocab": {"kind": "wordpiece", "size": len(header["vocab"]["tokens"])},
            "classes": header["classes"],
            "arch": header["arch"],
            "n_parameters": sum(p.size for p in bundle.params.values()),
        }


# One valid command line per subcommand; {name} fields are filled in by
# test_exit_code.
VALID_ARGV = {
    "synth": ["synth", "--out", "{tmp}/c.jsonl", "--n-per-class", "2",
              "--classes", "day_numbers,gender_codes"],
    "train": ["train", "--data", "{data}", "--config", "{config}", "--out", "{tmp}/m.dcom"],
    "predict": ["predict", "--model", "{model}", "--data", "{data}", "--out", "{tmp}/p.jsonl"],
    "evaluate": ["evaluate", "--model", "{model}", "--data", "{data}", "--split", "{split}",
                 "--out", "{tmp}/e.json"],
    "augment": ["augment", "--data", "{data}", "--out", "{tmp}/a.jsonl"],
    "features": ["features", "dump", "--data", "{data}", "--out", "{tmp}/f.csv"],
    "explain": ["explain", "--model", "{model}"],
    "inspect": ["inspect", "{model}"],
}

EXIT_CODES = [
    *[(argv, 0) for argv in VALID_ARGV.values()],
    *[(argv + ["--threads", "2"], 1) for argv in VALID_ARGV.values()],
    (VALID_ARGV["features"] + ["--seed", "1"], 1),
    (VALID_ARGV["explain"] + ["--seed", "1"], 1),
    (VALID_ARGV["augment"] + ["--mode", "triple"], 1),
    (["synth", "--out", "{tmp}/c.jsonl", "--classes", "day,gender_codes"], 2),
    (["train", "--data", "{data}", "--config", "{diverging}", "--out", "{tmp}/m.dcom"], 2),
    (["train", "--data", "{data}", "--config", "{zero_batch}", "--out", "{tmp}/m.dcom"], 2),
    (["train", "--data", "{data}", "--config", "{negative_epochs}", "--out", "{tmp}/m.dcom"], 2),
    (["predict", "--model", "{damaged}", "--data", "{data}"], 2),
    (["evaluate", "--model", "{damaged}", "--data", "{data}", "--split", "{split}"], 2),
    (["train", "--data", "{data}", "--config", "{config}", "--split", "{train_past_end}",
      "--out", "{tmp}/m.dcom"], 2),
    (["evaluate", "--model", "{model}", "--data", "{data}", "--split", "{negative_test}"], 2),
    (["explain", "--model", "{damaged}"], 2),
    (["inspect", "{damaged}"], 2),
    (["inspect", "{data}"], 2),
    (["inspect", "{tmp}/missing.dcom"], 2),
    (["inspect", "{tmp}"], 2),
    (["inspect"], 1),
    (VALID_ARGV["inspect"] + ["{split}"], 1),
    (["augment", "--data", "{tmp}/missing.jsonl"], 2),
    (["train", "--data", "{data}", "--config", "{negative_rate}", "--out", "{tmp}/m.dcom"], 2),
    (["train", "--data", "{data}", "--config", "{negative_factor}", "--out", "{tmp}/m.dcom"], 2),
    (["train", "--data", "{data}", "--config", "{config}", "--split", "{overlapping}",
      "--out", "{tmp}/m.dcom"], 2),
    (["evaluate", "--model", "{model}", "--data", "{data}", "--split", "{overlapping}"], 2),
    (["train", "--data", "{unlabeled_validation}", "--config", "{config}", "--split", "{split}",
      "--out", "{tmp}/m.dcom"], 2),
    (["evaluate", "--model", "{model}", "--data", "{data}", "--split", "{repeated_test}"], 2),
    # a directory where a file belongs
    (["train", "--data", "{data}", "--config", "{tmp}", "--out", "{tmp}/m.dcom"], 2),
    (["train", "--data", "{tmp}", "--out", "{tmp}/m.dcom"], 2),
    (["train", "--data", "{data}", "--split", "{tmp}", "--out", "{tmp}/m.dcom"], 2),
    (["predict", "--model", "{tmp}", "--data", "{data}"], 2),
    # numpy seeds only from integers >= 0
    (["synth", "--out", "{tmp}/c.jsonl", "--seed", "-1"], 1),
    (["predict", "--model", "{model}", "--data", "{data}", "--seed", "-1"], 1),
    (["train", "--data", "{data}", "--config", "{not_utf8}", "--out", "{tmp}/m.dcom"], 2),
    (["train", "--data", "{data}", "--config", "{huge_hidden}", "--out", "{tmp}/m.dcom"], 2),
    (["train", "--data", "{data}", "--config", "{word_budget}", "--out", "{tmp}/m.dcom"], 2),
    (["train", "--data", "{data}", "--config", "{config}", "--out", "{tmp}"], 2),
    (["train", "--data", "{data}", "--config", "{config}", "--out", "{tmp}/missing/m.dcom"], 2),
    # counts below one
    *[(["synth", "--out", "{tmp}/c.jsonl", "--n-per-class", n], 1) for n in ("0", "-3")],
    *[(VALID_ARGV["augment"] + ["--mode", "multi", "--r", r], 1) for r in ("0", "-3")],
]


def _exit_code_ids(rows):
    """The command line without its {fields}, then the code; a row whose id
    is taken already adds its {fields}."""
    ids = []
    for argv, code in rows:
        name = " ".join(t for t in argv if "{" not in t) + f" -> {code}"
        if name in ids:
            name += " " + " ".join(t for t in argv if "{" in t)
        ids.append(name)
    return ids


class TestExitCodes:
    @pytest.mark.parametrize("argv,code", EXIT_CODES, ids=_exit_code_ids(EXIT_CODES))
    def test_exit_code(self, argv, code, trained, corpus_path, tmp_path, capsys):
        model, split = trained
        header, params = split_bundle(model.read_bytes())
        del header["scaler"]
        damaged = tmp_path / "damaged.dcom"
        damaged.write_bytes(join_bundle(header, params))
        config = tmp_path / "cfg.toml"
        config.write_text(CONFIG.replace("epochs = 6", "epochs = 1"))
        # a step this large overflows the parameters within a few updates
        diverging = tmp_path / "diverging.toml"
        diverging.write_text(CONFIG.replace("learning_rate = 0.003", "learning_rate = 1e200"))
        zero_batch = tmp_path / "zero_batch.toml"
        zero_batch.write_text(CONFIG.replace("batch_size = 16", "batch_size = 0"))
        negative_epochs = tmp_path / "negative_epochs.toml"
        negative_epochs.write_text(CONFIG.replace("epochs = 6", "epochs = -1"))
        manifest = json.loads(split.read_text())
        n_columns = sum(len(part) for part in manifest["indices"].values())
        train_past_end = tmp_path / "train_past_end.json"
        manifest["indices"]["train"].append(n_columns)
        train_past_end.write_text(json.dumps(manifest))
        negative_test = tmp_path / "negative_test.json"
        manifest = json.loads(split.read_text())
        manifest["indices"]["test"].append(-1)
        negative_test.write_text(json.dumps(manifest))
        negative_rate = tmp_path / "negative_rate.toml"
        negative_rate.write_text(CONFIG.replace("learning_rate = 0.003", "learning_rate = -1.0"))
        negative_factor = tmp_path / "negative_factor.toml"
        negative_factor.write_text(CONFIG + "plateau_factor = -0.5\n")
        overlapping = tmp_path / "overlapping.json"
        manifest = json.loads(split.read_text())
        manifest["indices"]["validation"].append(manifest["indices"]["train"][0])
        overlapping.write_text(json.dumps(manifest))
        repeated_test = tmp_path / "repeated_test.json"
        manifest = json.loads(split.read_text())
        manifest["indices"]["test"] = manifest["indices"]["test"][:1] * 5
        repeated_test.write_text(json.dumps(manifest))
        unlabeled_validation = tmp_path / "unlabeled_validation.jsonl"
        records = [json.loads(line) for line in corpus_path.read_text().splitlines()]
        del records[manifest["indices"]["validation"][0]]["label"]
        unlabeled_validation.write_text("".join(json.dumps(r) + "\n" for r in records))
        not_utf8 = tmp_path / "not_utf8.toml"
        not_utf8.write_bytes(b"config_version = 1\n\xff\xfe = 2\n")
        # numpy refuses a (16, 4e20) parameter outright, before asking for memory
        huge_hidden = tmp_path / "huge_hidden.toml"
        huge_hidden.write_text(CONFIG.replace("hidden_size = 16",
                                              "hidden_size = 99999999999999999999"))
        # below the three reserved tokens
        word_budget = tmp_path / "word_budget.toml"
        word_budget.write_text(CONFIG.replace("vocab_budget = 300", "vocab_budget = 2")
                               + 'tokenizer = "word"\n')
        fields = dict(tmp=tmp_path, data=corpus_path, model=model, split=split,
                      config=config, diverging=diverging, damaged=damaged,
                      zero_batch=zero_batch, negative_epochs=negative_epochs,
                      train_past_end=train_past_end, negative_test=negative_test,
                      negative_rate=negative_rate, negative_factor=negative_factor,
                      overlapping=overlapping, repeated_test=repeated_test,
                      unlabeled_validation=unlabeled_validation, not_utf8=not_utf8,
                      huge_hidden=huge_hidden, word_budget=word_budget)
        with np.errstate(all="ignore"):
            assert main([a.format(**fields) for a in argv]) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("out,log", [("bundle", None), ("missing/m.dcom", "ep.csv")],
                             ids=["directory", "missing-parent"])
    def test_out_refused_before_training(self, out, log, corpus_path, tmp_path, capsys):
        config = tmp_path / "cfg.toml"
        config.write_text(CONFIG.replace("epochs = 6", "epochs = 1"))
        (tmp_path / "bundle").mkdir()
        out = tmp_path / out
        argv = ["train", "--data", str(corpus_path), "--config", str(config), "--out", str(out)]
        if log:
            argv += ["--log", str(tmp_path / log)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert str(out) in captured.err
        assert "epoch 1" not in captured.out
        # neither the default epoch log nor --log was opened
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "cfg.toml"]

    @pytest.mark.parametrize("key,lines", [
        ("mode", 'mode = "bogus"'), ("multi_mode", 'multi_mode = "bogus"'),
        ("tokenizer", 'tokenizer = "bpe"'), ("aggregation", 'aggregation = "max"'),
        ("dropout", "dropout = 1.5"), ("hidden_size", "hidden_size = 0"),
        ("dense_widths", "dense_widths = [0]"), ("r", 'mode = "multi"\nr = 600'),
    ], ids=["mode", "multi_mode", "tokenizer", "aggregation", "dropout", "hidden_size",
            "dense_widths", "multi-r"])
    def test_config_refused_before_data(self, key, lines, tmp_path, capsys):
        config = tmp_path / "cfg.toml"
        config.write_text(CONFIG + lines + "\n")
        argv = ["train", "--data", str(tmp_path / "missing.jsonl"), "--config", str(config),
                "--out", str(tmp_path / "m.dcom"), "--split-out", str(tmp_path / "split.json")]
        assert main(argv) == 2
        assert repr(key) in capsys.readouterr().err
        # no epoch log, no split manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.toml"]

    def test_augment_r_refused_before_data(self, tmp_path, capsys):
        argv = ["augment", "--data", str(tmp_path / "missing.jsonl"), "--mode", "multi",
                "--r", "600", "--out", str(tmp_path / "a.jsonl")]
        assert main(argv) == 2
        assert "'r'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", ["huge-hidden", "one-class-split"])
    def test_failed_training_leaves_no_files(self, case, trained, corpus_path, tmp_path,
                                             capsys):
        # train_model fails after the config and the data are read, in
        # building the model or in checking the classes
        _, split = trained
        config = tmp_path / "cfg.toml"
        argv = ["train", "--data", str(corpus_path), "--config", str(config),
                "--out", str(tmp_path / "m.dcom"), "--split-out", str(tmp_path / "out.json")]
        if case == "huge-hidden":
            config.write_text(CONFIG.replace("hidden_size = 16",
                                             "hidden_size = 99999999999999999999"))
        else:
            config.write_text(CONFIG.replace("epochs = 6", "epochs = 1"))
            labels = [json.loads(line)["label"] for line in corpus_path.read_text().splitlines()]
            manifest = json.loads(split.read_text())
            one = labels[manifest["indices"]["train"][0]]
            for part in ("train", "validation"):
                manifest["indices"][part] = [
                    i for i in manifest["indices"][part] if labels[i] == one
                ]
            (tmp_path / "one_class.json").write_text(json.dumps(manifest))
            argv += ["--split", str(tmp_path / "one_class.json")]
        inputs = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        # no epoch log, no split manifest, no bundle
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["synth", "--nope"]) == 1

    def test_missing_file(self, capsys):
        assert main(["predict", "--model", "no.dcom", "--data", "no.jsonl"]) == 2

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("k", ["0", "-3", "two"])
    def test_k_below_one_is_usage_error(self, command, k, trained, corpus_path, capsys):
        model, split = trained
        argv = [command, "--model", str(model), "--data", str(corpus_path), "--k", k]
        if command == "evaluate":
            argv += ["--split", str(split)]
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [
        "{oops",
        "[1, 2]",
        '{"seed": 0, "ratios": [0.6, 0.2, 0.2]}',
        '{"indices": {"train": [0], "validation": [1], "test": [2]}, "ratios": [0.6, 0.2, 0.2]}',
        '{"indices": {"train": [0], "validation": [1], "test": [2]}, "seed": 0}',
        '{"indices": {"train": [0], "validation": [1]}, "seed": 0, "ratios": [0.6, 0.2, 0.2]}',
        '{"indices": {"train": [0.5], "validation": [1], "test": [2]}, "seed": 0, "ratios": [0.6, 0.2, 0.2]}',
        '{"indices": {"train": ["0"], "validation": [1], "test": [2]}, "seed": 0, "ratios": [0.6, 0.2, 0.2]}',
    ])
    def test_malformed_split_manifest_exit_2(self, manifest, trained, corpus_path, tmp_path,
                                             capsys):
        model, _ = trained
        bad = tmp_path / "split.json"
        bad.write_text(manifest)
        out = tmp_path / "never.dcom"
        assert main(["evaluate", "--model", str(model), "--data", str(corpus_path),
                     "--split", str(bad)]) == 2
        assert main(["train", "--data", str(corpus_path), "--split", str(bad),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "split" in err and "Traceback" not in err
        assert not out.exists()

    def test_evaluate_unknown_label_exit_2(self, trained, corpus_path, tmp_path, capsys):
        model, split = trained
        instances, _ = ingest.load_dataset(corpus_path, "jsonl")
        test_index = json.loads(split.read_text())["indices"]["test"][0]
        records = [{"label": i.label, "values": list(i.values)} for i in instances]
        records[test_index]["label"] = "postcode"
        data = tmp_path / "relabeled.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["evaluate", "--model", str(model), "--data", str(data),
                     "--split", str(split)]) == 2
        err = capsys.readouterr().err
        assert "'postcode'" in err and f"test instance {test_index}" in err


# -- arbitrary and damaged files through predict and evaluate ----------------


@pytest.fixture(scope="module")
def valid_files(trained, sanity_multi_bundle, corpus_path, tmp_path_factory):
    """Valid bytes of each file the two commands read: the single and multi
    bundles, the data as JSONL and as long CSV (20 columns, more than one
    batch), and a split manifest over those columns."""
    model, _ = trained
    multi = tmp_path_factory.mktemp("fuzz") / "multi.dcom"
    save_bundle(sanity_multi_bundle, multi)
    lines = corpus_path.read_bytes().splitlines(keepends=True)[:20]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["column_id", "label", "value"])
    for i, line in enumerate(lines):
        record = json.loads(line)
        writer.writerows([i, record["label"], v] for v in record["values"])
    split = {"indices": {"train": list(range(12)), "validation": [12, 13, 14, 15],
                         "test": [16, 17, 18, 19]},
             "seed": 0, "ratios": [0.6, 0.2, 0.2]}
    return {
        "bundle": [model.read_bytes(), multi.read_bytes()],
        "data": [b"".join(lines), text.getvalue().encode()],
        "split": json.dumps(split).encode(),
    }


def _one_span_damaged(valid: bytes):
    """valid with one span of up to 8 bytes replaced by up to 3 arbitrary
    bytes, so a size in a bundle header gains at most three digits and
    prediction stays small."""
    return st.tuples(st.integers(0, len(valid)), st.integers(0, 8),
                     st.binary(max_size=3)).map(
        lambda t: valid[: t[0]] + t[2] + valid[t[0] + t[1] :])


def _file_bytes(data, valid, damage, resign=False):
    """valid as it is, or, when damage, arbitrary bytes or valid with one span
    damaged; a bundle's payload may also be damaged and signed again, so the
    damage gets past the checksum."""
    if not damage:
        return valid
    kind = data.draw(st.sampled_from(["arbitrary", "damaged"] + (["resigned"] if resign else [])))
    if kind == "arbitrary":
        return data.draw(st.binary(max_size=200))
    if kind == "damaged":
        return data.draw(_one_span_damaged(valid))
    return sign_payload(data.draw(_one_span_damaged(valid[20:])))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_predict_and_evaluate_exit_cleanly_on_any_files(valid_files, tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("cli-fuzz")
    command = data.draw(st.sampled_from(["predict", "evaluate"]))
    # at most one of the files is damaged
    damaged = data.draw(st.sampled_from(
        [None, "bundle", "data"] + (["split"] if command == "evaluate" else [])))
    model = directory / "model.dcom"
    model.write_bytes(_file_bytes(data, data.draw(st.sampled_from(valid_files["bundle"])),
                                  damaged == "bundle", resign=True))
    # the extension picks the reader: JSONL or long CSV
    which = data.draw(st.sampled_from([0, 1]))
    path = directory / ("data.jsonl", "data.csv")[which]
    path.write_bytes(_file_bytes(data, valid_files["data"][which], damaged == "data"))
    argv = [command, "--model", str(model), "--data", str(path),
            "--k", data.draw(st.sampled_from(["1", "3"])), "--out", str(directory / "out")]
    if command == "evaluate":
        split = directory / "split.json"
        split.write_bytes(_file_bytes(data, valid_files["split"], damaged == "split"))
        argv += ["--split", str(split)]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), np.errstate(all="ignore"):
        code = main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_features_explain_augment_exit_cleanly_on_any_files(valid_files, tmp_path_factory,
                                                            data):
    # inspect rides along: like explain, it reads only a bundle
    directory = tmp_path_factory.mktemp("cli-fuzz")
    command = data.draw(st.sampled_from(["features", "explain", "augment", "inspect"]))
    damaged = data.draw(st.booleans())
    out = str(directory / "out")
    if command in ("explain", "inspect"):
        model = directory / "model.dcom"
        model.write_bytes(_file_bytes(data, data.draw(st.sampled_from(valid_files["bundle"])),
                                      damaged, resign=True))
        if command == "inspect":
            argv = ["inspect", str(model)]
        else:
            argv = ["explain", "--model", str(model), "--csv", out]
            argv += data.draw(st.sampled_from([[], ["--labels"]]))
    else:
        which = data.draw(st.sampled_from([0, 1]))
        path = directory / ("data.jsonl", "data.csv")[which]
        path.write_bytes(_file_bytes(data, valid_files["data"][which], damaged))
        if command == "features":
            argv = ["features", "dump", "--data", str(path), "--out", out]
        else:
            argv = ["augment", "--data", str(path), "--out", out,
                    "--mode", data.draw(st.sampled_from(["single", "multi"])),
                    "--multi-mode", data.draw(st.sampled_from(["pad", "with_replacement"])),
                    # 0 and 600 lie outside the slot range [1, 512]
                    "--r", data.draw(st.sampled_from(["0", "1", "5", "45", "600"]))]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
            np.errstate(all="ignore"):
        code = main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


# -- arbitrary and damaged files through train, and synth's arguments --------

TRAIN_CONFIGS = {
    "single": """\
config_version = 1
mode = "single"
embedding_dim = 8
hidden_size = 8
feature_dim = 8
dense_widths = [16]
epochs = 1
early_stop_patience = 1
batch_size = 16
vocab_budget = 100
max_len = 32
""",
    "multi": """\
config_version = 1
mode = "multi"
embedding_dim = 8
hidden_size = 8
feature_dim = 8
dense_widths = [16]
epochs = 1
early_stop_patience = 1
batch_size = 16
vocab_budget = 100
r = 6
max_len_per_slot = 8
""",
}


@pytest.fixture(scope="module")
def train_files(tmp_path_factory):
    """Valid bytes of each file train reads: a 16-column corpus of two classes
    as JSONL and as long CSV, a split manifest over it, and a one-epoch
    config per mode."""
    spec = {"gender": "gender_codes", "description": "descriptions"}
    path = tmp_path_factory.mktemp("train-fuzz") / "corpus.jsonl"
    ingest.save_jsonl(ingest.generate_synthetic_corpus(spec, 8, seed=2), path)
    lines = path.read_bytes().splitlines(keepends=True)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["column_id", "label", "value"])
    for i, line in enumerate(lines):
        record = json.loads(line)
        writer.writerows([i, record["label"], v] for v in record["values"])
    split = {"indices": {"train": [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13],
                         "validation": [6, 14], "test": [7, 15]},
             "seed": 0, "ratios": [0.6, 0.2, 0.2]}
    return {
        "data": [b"".join(lines), text.getvalue().encode()],
        "split": json.dumps(split).encode(),
        "config": [c.encode() for c in TRAIN_CONFIGS.values()],
    }


def _config_damaged(valid: bytes):
    """valid with one span of up to 8 bytes replaced by up to 3 bytes that are
    not digits: a width or the epoch count cannot grow by orders of magnitude,
    so training stays small."""
    return st.tuples(st.integers(0, len(valid)), st.integers(0, 8),
                     st.binary(max_size=3).filter(lambda b: not any(48 <= c <= 57 for c in b))
                     ).map(lambda t: valid[: t[0]] + t[2] + valid[t[0] + t[1] :])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_train_exits_cleanly_on_any_files(train_files, tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("train-fuzz")
    # at most one of the files is damaged, and a directory where a file
    # belongs counts as damage; no --split draws a fresh split
    damaged = data.draw(st.sampled_from([None, "data", "config", "split"]))
    which = data.draw(st.sampled_from([0, 1]))
    files = {"data": directory / ("data.jsonl", "data.csv")[which],
             "config": directory / "config.toml", "split": directory / "split.json"}
    valid = {"data": train_files["data"][which], "split": train_files["split"],
             "config": data.draw(st.sampled_from(train_files["config"]))}
    for name, path in files.items():
        if damaged == name and data.draw(st.booleans()):
            path.mkdir()
        elif damaged == name == "config":
            path.write_bytes(data.draw(st.one_of(st.binary(max_size=200),
                                                 _config_damaged(valid[name]))))
        else:
            path.write_bytes(_file_bytes(data, valid[name], damaged == name))
    argv = ["train", "--data", str(files["data"]), "--config", str(files["config"]),
            "--out", str(directory / "m.dcom"), "--seed", str(data.draw(st.integers(-2, 2**64)))]
    if damaged == "split" or data.draw(st.booleans()):
        argv += ["--split", str(files["split"])]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
            np.errstate(all="ignore"):
        code = main(argv)
    event(f"train, {damaged} damaged: exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


# How far a value written to the epoch log may lie from its EpochReport
# field, by the precision the column is written at.
LOG_PRECISION = {"train_loss": dict(abs=5.1e-7), "val_accuracy": dict(abs=5.1e-5),
                 "val_f1": dict(abs=5.1e-5), "learning_rate": dict(rel=5.1e-3),
                 "grad_norm_max": dict(rel=5.1e-5), "truncated_frac": dict(abs=5.1e-5),
                 "wall_time_s": dict(abs=5.1e-3)}


@given(mode=st.sampled_from(["single", "multi"]), epochs=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_epoch_log_rows_match_reports(corpus_path, tmp_path_factory, mode, epochs, seed):
    """Each row of `dcom train --log` is the EpochReport train_model returned
    for that epoch, field by field, to the precision it is written at."""
    directory = tmp_path_factory.mktemp("epoch-log")
    config = directory / "cfg.toml"
    config.write_text(CONFIG.replace('"single"', f'"{mode}"')
                      .replace("epochs = 6", f"epochs = {epochs}"))
    returned = []

    def spy(*args, **kwargs):
        bundle, reports = train_model(*args, **kwargs)
        returned.extend(reports)
        return bundle, reports

    log = directory / "epochs.csv"
    with mock.patch.object(cli, "train_model", spy), contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--data", str(corpus_path), "--config", str(config),
                     "--out", str(directory / "m.dcom"), "--log", str(log),
                     "--seed", str(seed)]) == 0
    rows = list(csv.DictReader(log.read_text().splitlines()))
    assert len(rows) == len(returned) >= 1
    for row, report in zip(rows, returned):
        assert list(row) == [f.name for f in dataclasses.fields(EpochReport)]
        assert int(row["epoch"]) == report.epoch
        for name, precision in LOG_PRECISION.items():
            assert float(row[name]) == pytest.approx(getattr(report, name), **precision), name


@given(out=st.sampled_from(["file", "directory", "missing parent"]),
       n_per_class=st.integers(-2, 3),
       classes=st.one_of(st.none(), st.lists(st.one_of(
           st.sampled_from(sorted(ingest.GENERATORS)), st.text(max_size=8)), max_size=3)),
       seed=st.integers(-2, 2**64))
@settings(max_examples=200, deadline=None)
def test_synth_exits_cleanly_on_any_arguments(tmp_path_factory, out, n_per_class, classes,
                                              seed):
    directory = tmp_path_factory.mktemp("synth-fuzz")
    target = {"file": directory / "c.jsonl", "directory": directory,
              "missing parent": directory / "missing" / "c.jsonl"}[out]
    argv = ["synth", "--out", str(target), "--n-per-class", str(n_per_class),
            "--seed", str(seed)]
    if classes is not None:
        argv += ["--classes", ",".join(classes)]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    event(f"synth exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
