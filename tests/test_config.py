import numpy as np
import pytest
from test_data import idx_images_bytes, idx_labels_bytes

from advlab.config import parse_config, parse_sectioned
from advlab.errors import ConfigError

GOOD = """
[dataset]
kind = gaussian_mixture
classes = 3
dim = 6
train_per_class = 40
test_per_class = 20
separation = 4.0
noise_std = 0.8
seed = 5

[model]
hidden = 16,8
activation = tanh
init_seed = 1

[train]
method = edac
epochs = 4
batch_size = 32
lr = 0.05
edac_eta = 0.02
seed = 3

[train.attack]
norm = linf
epsilon = 0.25
step_size = 0.0625
steps = 5

[train.eval_attack]
norm = linf
epsilon = 0.25
step_size = 0.03125
steps = 10

[eval.pgd10]
norm = linf
epsilon = 0.25
step_size = 0.03125
steps = 10

[eval.clean]
norm = linf
epsilon = 0
steps = 0

[output]
dir = /tmp/somewhere
formats = csv
"""


class TestParser:
    def test_sections_and_line_numbers(self):
        s = parse_sectioned("[a]\nx = 1\n\n# comment\ny = 2\n", "f.ini")
        assert s["a"]["x"] == ("1", 2)
        assert s["a"]["y"] == ("2", 5)

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match="f.ini:3"):
            parse_sectioned("[a]\nx = 1\nx = 2\n", "f.ini")

    def test_duplicate_section_rejected(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_sectioned("[a]\n[a]\n", "f.ini")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_sectioned("x = 1\n", "f.ini")

    def test_garbage_line(self):
        with pytest.raises(ConfigError, match="f.ini:2"):
            parse_sectioned("[a]\nnot a pair\n", "f.ini")


class TestExperimentConfig:
    def test_good_config_parses(self):
        cfg = parse_config(GOOD, "good.ini")
        assert cfg.train.method == "edac"
        assert cfg.train.edac_eta == 0.02
        assert cfg.hidden == (16, 8)
        assert cfg.activation == "tanh"
        assert set(cfg.eval_attacks) == {"pgd10", "clean"}
        assert cfg.train.eval_attack.steps == 10
        assert cfg.out_dir == "/tmp/somewhere"
        train, test = cfg.build_datasets()
        assert len(train) == 120 and len(test) == 60
        spec = cfg.model_spec(train)
        assert spec.layer_widths == (16, 8, 3)

    def test_unknown_key_fails_with_location(self):
        bad = GOOD.replace("epochs = 4", "epochs = 4\nbogus_key = 1")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(bad, "bad.ini")

    def test_unknown_section_fails(self):
        bad = GOOD + "\n[mystery]\nx = 1\n"
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(bad, "bad.ini")

    def test_missing_required_section(self):
        bad = GOOD.replace("[train.attack]", "[eval.extra]")
        with pytest.raises(ConfigError, match="train.attack"):
            parse_config(bad, "bad.ini")

    def test_bad_number_reports_line_and_key(self):
        bad = GOOD.replace("lr = 0.05", "lr = fast")
        with pytest.raises(ConfigError, match="lr"):
            parse_config(bad, "bad.ini")

    @pytest.mark.parametrize("old,new", [
        ("edac_eta = 0.02", "edac_eta = nan"),
        ("noise_std = 0.8", "noise_std = inf"),
        ("[eval.pgd10]\nnorm = linf\nepsilon = 0.25", "[eval.pgd10]\nnorm = linf\nepsilon = -inf"),
        ("epsilon = 0.25\nstep_size = 0.0625", "epsilon = 0.25\nclamp = 0,inf\nstep_size = 0.0625"),
    ])
    def test_non_finite_number_rejected(self, old, new):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(GOOD.replace(old, new), "bad.ini")

    def test_bad_choice_rejected(self):
        bad = GOOD.replace("method = edac", "method = mart")
        with pytest.raises(ConfigError, match="method"):
            parse_config(bad, "bad.ini")

    def test_eval_attack_defaults_to_train_attack(self):
        slim = GOOD.replace("[train.eval_attack]\nnorm = linf\nepsilon = 0.25\nstep_size = 0.03125\nsteps = 10\n", "")
        cfg = parse_config(slim, "slim.ini")
        assert cfg.train.eval_attack == cfg.train.train_attack

    def test_seed_override(self):
        cfg = parse_config(GOOD, "good.ini").with_overrides(seed=99, out_dir="/tmp/o")
        assert cfg.train.seed == 99
        assert cfg.out_dir == "/tmp/o"

    def test_clamp_parsing(self):
        with_clamp = GOOD.replace("epsilon = 0.25\nstep_size = 0.0625",
                                  "epsilon = 0.25\nclamp = 0,1\nstep_size = 0.0625")
        cfg = parse_config(with_clamp, "c.ini")
        assert cfg.train.train_attack.domain_clamp == (0.0, 1.0)

    def test_benchmark_kind(self):
        text = "[dataset]\nkind = benchmark\n[model]\n[train]\nepochs = 1\n" \
               "[train.attack]\nepsilon = 0.15\nstep_size = 0.0375\nsteps = 10\n"
        cfg = parse_config(text, "b.ini")
        train, test = cfg.build_datasets()
        assert len(train) == 2000 and len(test) == 1000

    @pytest.mark.parametrize("kind", ["gaussian_mixture", "benchmark", "idx"])
    def test_each_split_alone_is_its_split_of_the_pair(self, kind, tmp_path):
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        ip.write_bytes(idx_images_bytes(np.arange(10 * 2 * 2, dtype=np.uint8).reshape(10, 2, 2)))
        lp.write_bytes(idx_labels_bytes([0, 1, 2, 1, 0, 2, 1, 0, 2, 1]))
        section = GOOD[GOOD.index("[dataset]"):GOOD.index("[model]")]
        sections = {"gaussian_mixture": section, "benchmark": "[dataset]\nkind = benchmark\n",
                    "idx": f"[dataset]\nkind = idx\nimages = {ip}\nlabels = {lp}\n"}
        cfg = parse_config(GOOD.replace(section, sections[kind]), "s.ini")
        pair = cfg.build_datasets()
        alone = [cfg.build_datasets((side,))[0] for side in ("train", "test")]
        swapped = cfg.build_datasets(("test", "train"))
        for got in (alone, swapped[::-1]):
            assert [(d.name, d.sha256) for d in got] == [(d.name, d.sha256) for d in pair]
