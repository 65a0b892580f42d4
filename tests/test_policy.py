import ast
import dataclasses
import itertools
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from fieldaug import augment as au
from fieldaug import policy as P
from fieldaug.policy import (
    AUGMENTATION_NAMES,
    DEFAULT_PROBABILITIES,
    Policy,
    PolicyEntry,
    PolicyError,
    RandomStream,
    apply_policy,
    default_policy,
    derive_seed,
    load_policy,
    make_views,
    save_policy,
)


class TestDefaults:
    def test_probabilities(self):
        pol = default_policy()
        probs = {e.name: e.probability for e in pol.entries}
        assert probs == {
            "color_jitter": 1.0,
            "random_erasing": 1.0,
            "gaussian_blur": 0.9,
            "mixing": 0.9,
            "background_invariance": 0.8,
            "affine": 0.8,
        }

    def test_order_background_before_color(self):
        names = [e.name for e in default_policy().entries]
        assert names.index("background_invariance") < names.index("color_jitter")
        assert set(names) == set(AUGMENTATION_NAMES)


class TestApplyPolicy:
    def test_zero_probabilities_identity(self, plant_image, soil_bank):
        pol = default_policy(5)
        for e in pol.entries:
            e.probability = 0.0
        out = apply_policy(plant_image, pol, RandomStream(3), soil_bank=soil_bank)
        assert np.array_equal(out, plant_image)

    def test_deterministic(self, plant_image, soil_bank):
        pol = default_policy(17)
        a = apply_policy(plant_image, pol, RandomStream(2), soil_bank=soil_bank)
        b = apply_policy(plant_image, pol, RandomStream(2), soil_bank=soil_bank)
        assert np.array_equal(a, b)

    def test_missing_bank_is_config_error(self, plant_image):
        with pytest.raises(PolicyError, match="soil bank"):
            apply_policy(plant_image, default_policy(), RandomStream(1))

    def test_no_bank_needed_without_background(self, plant_image):
        pol = Policy(entries=[PolicyEntry("gaussian_blur", 1.0)], master_seed=1)
        apply_policy(plant_image, pol, RandomStream(1))

    def test_all_prob_one_matches_manual_composition(self, plant_image, soil_bank):
        entries = [
            PolicyEntry("background_invariance", 1.0),
            PolicyEntry("gaussian_blur", 1.0),
            PolicyEntry("random_erasing", 1.0),
        ]
        pol = Policy(entries=entries, master_seed=0, theta=0.0)
        got = apply_policy(plant_image, pol, RandomStream(41), soil_bank=soil_bank)

        # manual composition consuming the same stream draws
        stream = RandomStream(41)
        img = plant_image
        stream.next_float64()  # gate
        img = au.background_invariance(img, soil_bank, stream, 0.0)
        stream.next_float64()  # gate
        sigma = stream.uniform(*au.SIGMA_RANGE)
        img = au.gaussian_blur(img, sigma)
        stream.next_float64()  # gate
        img = au.random_erasing(img, stream)
        assert np.array_equal(got, img)

    def test_gate_draws_always_consumed(self, plant_image):
        # with every probability zero, exactly one draw per entry is used
        pol = Policy(
            entries=[PolicyEntry("gaussian_blur", 0.0), PolicyEntry("mixing", 0.0)],
            master_seed=0,
        )
        stream = RandomStream(123)
        apply_policy(plant_image, pol, stream, soil_bank=None)
        reference = RandomStream(123)
        reference.next_float64()
        reference.next_float64()
        assert stream.next_u64() == reference.next_u64()

    def test_toggling_probability_to_zero_matches_ungated_runs(self, plant_image):
        # find a seed where the blur gate does not fire at p=0.5, then
        # p=0.5 and p=0 must agree byte for byte
        entries = lambda p: [
            PolicyEntry("gaussian_blur", p),
            PolicyEntry("random_erasing", 1.0),
        ]
        seed = None
        for candidate in range(50):
            if RandomStream(candidate).next_float64() >= 0.5:
                seed = candidate
                break
        assert seed is not None
        with_p = apply_policy(
            plant_image, Policy(entries=entries(0.5)), RandomStream(seed)
        )
        without = apply_policy(
            plant_image, Policy(entries=entries(0.0)), RandomStream(seed)
        )
        assert np.array_equal(with_p, without)

    def test_reordering_changes_output(self, plant_image):
        a = Policy(entries=[PolicyEntry("gaussian_blur", 1.0), PolicyEntry("random_erasing", 1.0)])
        b = Policy(entries=[PolicyEntry("random_erasing", 1.0), PolicyEntry("gaussian_blur", 1.0)])
        out_a = apply_policy(plant_image, a, RandomStream(7))
        out_b = apply_policy(plant_image, b, RandomStream(7))
        assert not np.array_equal(out_a, out_b)

    def test_duplicate_entries_rejected(self, plant_image):
        pol = Policy(entries=[PolicyEntry("mixing", 0.5), PolicyEntry("mixing", 0.5)])
        with pytest.raises(PolicyError, match="duplicate"):
            apply_policy(plant_image, pol, RandomStream(0))


class TestMakeViews:
    def test_views_differ_with_stochastic_entries(self, plant_image, soil_bank):
        pol = default_policy(3)
        v1, v2 = make_views(plant_image, pol, 0, soil_bank=soil_bank)
        assert not np.array_equal(v1, v2)

    def test_reproducible(self, plant_image, soil_bank):
        pol = default_policy(3)
        a = make_views(plant_image, pol, 5, soil_bank=soil_bank)
        b = make_views(plant_image, pol, 5, soil_bank=soil_bank)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_adjacent_indices_use_disjoint_seeds(self):
        seeds = set()
        for index in range(10):
            seeds.add(derive_seed(0, 2 * index))
            seeds.add(derive_seed(0, 2 * index + 1))
        assert len(seeds) == 20

    def test_different_indices_different_views(self, plant_image, soil_bank):
        pol = default_policy(3)
        a = make_views(plant_image, pol, 0, soil_bank=soil_bank)
        b = make_views(plant_image, pol, 1, soil_bank=soil_bank)
        assert not np.array_equal(a[0], b[0])

    @pytest.mark.parametrize("picks", [[], [0], [0, 1, 2], [0, 0]],
                             ids=["none", "one", "three", "repeated"])
    def test_exactly_two_distinct_streams(self, plant_image, soil_bank, picks):
        # an empty list is not taken as "derive the streams"
        streams = [RandomStream(i) for i in range(3)]
        with pytest.raises(ValueError, match="two distinct streams"):
            make_views(plant_image, default_policy(3), 0, soil_bank=soil_bank,
                       streams=[streams[i] for i in picks])

    @pytest.mark.parametrize("img", [
        np.zeros((4, 4, 3)), np.zeros((4, 4), np.uint8), np.zeros((0, 4, 3), np.uint8),
        np.zeros(12, np.uint8), [[[0, 0, 0]] * 4] * 4,
    ], ids=["float64", "gray", "empty", "one_dimensional", "nested_list"])
    def test_malformed_image_is_value_error(self, img):
        # checked on entry: a plan that never fires would pass it through
        plan = Policy([PolicyEntry("mixing", 0.0)])
        for call in (lambda: make_views(img, plan, 0), lambda: P.view_pairs([img], plan, [0]),
                     lambda: apply_policy(img, plan, RandomStream(0))):
            with pytest.raises(ValueError, match=r"^(expected|empty image)"):
                call()


class TestPolicyText:
    def test_default_round_trip(self):
        pol = default_policy(99)
        text = save_policy(pol)
        assert load_policy(text) == pol

    def test_save_load_save_fixed_point(self):
        pol = default_policy(7)
        pol.entries[0].params = {"min_fraction": 0.2} if pol.entries[0].name == "random_erasing" else {}
        pol.entries[1].params = {"scale_min": 0.8, "scale_max": 1.5}
        once = save_policy(pol)
        assert save_policy(load_policy(once)) == once

    def test_header_fields(self):
        text = "seed=42\ntheta=0.25\nsoil_bank=banks/soil dir\nmixing 0.5\n"
        pol = load_policy(text)
        assert pol.master_seed == 42
        assert pol.theta == 0.25
        assert pol.soil_bank_path == "banks/soil dir"
        assert pol.entries == [PolicyEntry("mixing", 0.5)]

    def test_comments_and_blanks(self):
        pol = load_policy("# header\n\nmixing 1.0\n# done\n")
        assert len(pol.entries) == 1

    def test_probability_out_of_range(self):
        with pytest.raises(PolicyError, match=r"line 2"):
            load_policy("mixing 0.5\ngaussian_blur 1.5\n")

    def test_unknown_name(self):
        with pytest.raises(PolicyError, match="unknown augmentation"):
            load_policy("sharpen 0.5\n")

    def test_duplicate_entry(self):
        with pytest.raises(PolicyError, match="duplicate"):
            load_policy("mixing 0.5\nmixing 0.7\n")

    def test_unknown_parameter(self):
        with pytest.raises(PolicyError, match="unknown parameter"):
            load_policy("gaussian_blur 1.0 radius=3\n")

    def test_bad_number(self):
        with pytest.raises(PolicyError, match="line 1"):
            load_policy("gaussian_blur abc\n")

    def test_seed_out_of_range(self):
        with pytest.raises(PolicyError, match="seed"):
            load_policy(f"seed={2 ** 64}\nmixing 1.0\n")

    def test_probabilities_serialized_3_decimals(self):
        text = save_policy(default_policy())
        assert "color_jitter 1.000" in text
        assert "gaussian_blur 0.900" in text
        assert "background_invariance 0.800" in text

    @pytest.mark.parametrize("first, second", [
        ("seed=5", "seed=6"), ("theta=0.0", "theta=0.5"), ("soil_bank=a", "soil_bank=b"),
    ])
    def test_repeated_header_line_named(self, first, second):
        key = first.partition("=")[0]
        with pytest.raises(PolicyError) as info:
            load_policy(f"{first}\nmixing 1.0\n{second}\n")
        assert str(info.value) == f"{key} set twice, first on line 1 (line 3)"

    def test_spaces_around_header_equals_sign(self):
        pol = load_policy("seed = 42\ntheta =0.5\nsoil_bank= banks/soil\nmixing 1.0\n")
        assert (pol.master_seed, pol.theta, pol.soil_bank_path) == (42, 0.5, "banks/soil")

    def test_bytes_input(self):
        pol = load_policy(b"mixing 1.0\n")
        assert pol.entries[0].name == "mixing"

    def test_byte_that_is_not_utf8_is_policy_error_naming_its_line(self):
        with pytest.raises(PolicyError) as info:
            load_policy(b"seed=1\r\n# \xc3\xa9t\xc3\xa9\n\xff\n")
        assert str(info.value) == "not UTF-8 (line 3)"

    def test_param_overrides_shape_sampling(self, plant_image):
        pol = load_policy("gaussian_blur 1.0 sigma_min=1.9 sigma_max=2.0\n")
        wide = load_policy("gaussian_blur 1.0 sigma_min=0.1 sigma_max=0.11\n")
        heavy = apply_policy(plant_image, pol, RandomStream(1))
        light = apply_policy(plant_image, wide, RandomStream(1))
        delta_heavy = np.abs(heavy.astype(int) - plant_image.astype(int)).sum()
        delta_light = np.abs(light.astype(int) - plant_image.astype(int)).sum()
        assert delta_heavy > delta_light


class TestParameterConstraints:
    @pytest.mark.parametrize("entry, message", [
        ("gaussian_blur 1.0 sigma_min=-1 sigma_max=-0.5", "sigma_min=-1.0 must be > 0"),
        ("affine 1.0 scale_min=0 scale_max=0", "scale_min=0.0 must be > 0"),
        ("random_erasing 1.0 aspect_min=-1 aspect_max=-0.5", "aspect_min=-1.0 must be > 0"),
        ("color_jitter 1.0 brightness_min=2 brightness_max=1", "brightness_min=2.0 exceeds"),
        ("affine 1.0 scale_min=3", "scale_min=3.0 exceeds scale_max=2.0"),
        ("color_jitter 1.0 hue_max=nan", "hue_max=nan is not finite"),
        ("affine 1.0 translate_frac=inf", "translate_frac=inf is not finite"),
        ("random_erasing 1.0 area_min=0", "area_min=0.0 must be > 0"),
        ("random_erasing 1.0 area_max=1.5", "area_max=1.5 must be <= 1"),
        ("random_erasing 1.0 min_fraction=0", r"min_fraction=0.0 must be in \(0, 0.5\)"),
        ("random_erasing 1.0 min_fraction=0.5", r"min_fraction=0.5 must be in \(0, 0.5\)"),
        ("random_erasing 1.0 max_rects=0", "max_rects=0 must be >= 1"),
        ("gaussian_blur 1.0 sigma_min=1e4 sigma_max=1e4", "sigma_min=10000.0 must be <= 32"),
        ("gaussian_blur 1.0 sigma_max=32.5", "sigma_max=32.5 must be <= 32"),
    ])
    def test_bad_parameters_fail_at_load_with_line(self, entry, message):
        with pytest.raises(PolicyError, match=f"{message}.*\\(line 3\\)"):
            load_policy(f"# header\nseed=1\n{entry}\n")

    def test_non_finite_theta(self):
        with pytest.raises(PolicyError, match=r"theta=nan is not finite \(line 1\)"):
            load_policy("theta=nan\n")
        pol = default_policy()
        pol.theta = float("inf")
        with pytest.raises(PolicyError, match="theta"):
            save_policy(pol)

    def test_int_beyond_float_range_is_not_finite(self):
        with pytest.raises(PolicyError, match=rf"^theta={10 ** 400} is not finite$"):
            P.compile_policy(Policy(entries=[], theta=10 ** 400))
        entry = PolicyEntry("gaussian_blur", 1.0, {"sigma_max": 10 ** 400})
        with pytest.raises(PolicyError, match=rf"^sigma_max={10 ** 400} is not finite$"):
            P.compile_policy(Policy(entries=[entry]))

    def test_constructed_policies_are_checked_too(self, plant_image):
        pol = Policy(entries=[PolicyEntry("gaussian_blur", 1.0, {"sigma_min": 0.0})])
        with pytest.raises(PolicyError, match="sigma_min"):
            apply_policy(plant_image, pol, RandomStream(0))

    def test_boundary_values_load(self):
        pol = load_policy(
            "random_erasing 1.0 area_min=1 area_max=1 min_fraction=0.49 max_rects=1\n"
            "gaussian_blur 1.0 sigma_min=0.5 sigma_max=0.5\n"
            "color_jitter 1.0 brightness_min=-1 brightness_max=-1 hue_min=-0.5\n"
        )
        assert [e.name for e in pol.entries] == ["random_erasing", "gaussian_blur", "color_jitter"]
        widest = load_policy("gaussian_blur 1.0 sigma_min=32 sigma_max=32\n")
        assert widest.entries[0].params == {"sigma_min": 32.0, "sigma_max": 32.0}


# Each policy parameter and the augment keyword it must reach; the blur
# sigma is drawn by the policy itself.
KEYWORDS = {
    "scale": "scale_range",
    "rotation": "rotation_range",
    "shear": "shear_range",
    "translate_frac": "translate_frac",
    "brightness": "brightness_range",
    "contrast": "contrast_range",
    "saturation": "saturation_range",
    "hue": "hue_range",
    "sigma": "sigma_range",
    "area": "area_range",
    "aspect": "aspect_range",
    "min_fraction": "min_fraction",
    "max_rects": "max_rects",
}


def direct(name, img, stream, bank, theta, **kwargs):
    """One fired entry written as direct augment calls; parameters not in
    ``kwargs`` keep augment's own defaults."""
    h, w = img.shape[:2]
    if name == "affine":
        return au.apply_affine(img, au.sample_affine(stream, w, h, **kwargs))
    if name == "color_jitter":
        return au.color_jitter(img, au.sample_color_jitter(stream, **kwargs))
    if name == "gaussian_blur":
        return au.gaussian_blur(img, stream.uniform(*kwargs.get("sigma_range", au.SIGMA_RANGE)))
    if name == "mixing":
        return au.mixing(img, stream)
    if name == "random_erasing":
        return au.random_erasing(img, stream, **kwargs)
    return au.background_invariance(img, bank, stream, theta)


def one_key_overrides():
    """(name, override, parameter, merged value) for every key a policy
    may set, with a value inside its bounds that differs from the default."""
    cases = []
    for name, params in P.PARAMETERS.items():
        for key, (default, _) in params.items():
            if isinstance(default, tuple):
                lo, hi = default
                mid = (lo + hi) / 2
                cases.append((name, {f"{key}_min": mid}, key, (mid, hi)))
                cases.append((name, {f"{key}_max": mid}, key, (lo, mid)))
            elif isinstance(default, int):
                cases.append((name, {key: 1}, key, 1))
            else:
                cases.append((name, {key: default / 2}, key, default / 2))
    return cases


class TestWiring:
    @pytest.mark.parametrize("name, override, key, value", one_key_overrides(),
                             ids=lambda case: str(case))
    def test_override_reaches_its_augment_argument(self, name, override, key, value,
                                                   random_image):
        pol = Policy([PolicyEntry(name, 1.0, override)])
        got = apply_policy(random_image, pol, RandomStream(11))
        stream = RandomStream(11)
        stream.next_float64()  # the gate
        expected = direct(name, random_image, stream, None, pol.theta, **{KEYWORDS[key]: value})
        assert np.array_equal(got, expected)
        # the override changes the view, so a dropped override fails too
        plain = Policy([PolicyEntry(name, 1.0)])
        assert not np.array_equal(got, apply_policy(random_image, plain, RandomStream(11)))

    @pytest.mark.parametrize("name", AUGMENTATION_NAMES)
    def test_defaults_match_augment_defaults(self, name, plant_image, soil_bank):
        pol = Policy([PolicyEntry(name, 1.0)], master_seed=3, theta=0.25)
        got = apply_policy(plant_image, pol, RandomStream(5), soil_bank=soil_bank)
        stream = RandomStream(5)
        stream.next_float64()  # the gate
        assert np.array_equal(got, direct(name, plant_image, stream, soil_bank, 0.25))


class TestParameterTable:
    """What ``PARAMETERS`` promises: bounds that reject at load each value
    that would fail on every view, a README table that matches it, and the
    cast of an integer key."""

    @pytest.mark.parametrize("entry, message", [
        ("affine 1.0 scale_min=0.005", "scale_min=0.005 must be >= 0.01"),
        ("affine 1.0 scale_max=1e300", "scale_max=1e[+]300 must be <= 100"),
        ("affine 1.0 shear_min=1 shear_max=1", "shear_min=1.0 must be <= 0.99999999"),
        ("affine 1.0 shear_min=-1", "shear_min=-1.0 must be >= -0.99999999"),
        ("affine 1.0 rotation_min=-1e308 rotation_max=1e308", "rotation_min=-1e[+]308 must be >="),
        ("affine 1.0 rotation_max=1e308", "rotation_max=1e[+]308 must be <= 1000000.0"),
        ("affine 1.0 translate_frac=1e307", "translate_frac=1e[+]307 must be <= 1000000.0"),
        ("affine 1.0 translate_frac=-1e307", "translate_frac=-1e[+]307 must be >= -1000000.0"),
        ("color_jitter 1.0 brightness_min=1e308 brightness_max=1e308", "brightness_min=1e[+]308"),
        ("color_jitter 1.0 brightness_min=-1e308", "brightness_min=-1e[+]308 must be >="),
        ("color_jitter 1.0 contrast_max=1e308", "contrast_max=1e[+]308 must be <="),
        ("color_jitter 1.0 contrast_min=-1e308", "contrast_min=-1e[+]308 must be >="),
        ("color_jitter 1.0 saturation_max=1e308", "saturation_max=1e[+]308 must be <="),
        ("color_jitter 1.0 saturation_min=-1e308", "saturation_min=-1e[+]308 must be >="),
        ("color_jitter 1.0 hue_min=-1e308 hue_max=1e308", "hue_min=-1e[+]308 must be >="),
        ("color_jitter 1.0 hue_max=1e308", "hue_max=1e[+]308 must be <="),
        ("gaussian_blur 1.0 sigma_min=1e-170", "sigma_min=1e-170 must be >= 1e-150"),
        ("random_erasing 1.0 aspect_max=1e308", "aspect_max=1e[+]308 must be <="),
        ("random_erasing 1.0 aspect_min=1e-320", "aspect_min=1e-320 must be >= 1e-06"),
    ])
    def test_policies_that_would_fail_to_apply_fail_at_load(self, entry, message):
        with pytest.raises(PolicyError, match=f"{message}.*\\(line 1\\)"):
            load_policy(f"{entry}\n")

    def test_readme_table_matches_parameters(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("## Policy files"):readme.index("## CLI")]
        table, name = {}, None
        rows = [line for line in section.splitlines() if line.startswith("|")]
        for row in rows[2:]:
            entry, keys, default, bounds, _reason = (c.strip() for c in row[1:-1].split("|"))
            name = entry.strip("`") or name
            table.setdefault(name, {})
            if keys.startswith("none"):
                continue
            key = re.match(r"`(\w+?)(_min)?`", keys).group(1)
            default = ast.literal_eval(f"({default},)".replace("pi", repr(math.pi)))
            bounds = dict(re.findall(r"(>=|<=|>|in) (\([^)]*\)|[^,]+)", bounds))
            table[name][key] = (default if len(default) == 2 else default[0],
                                {s: ast.literal_eval(v) for s, v in bounds.items()})
        assert table == P.PARAMETERS

    def test_readme_policy_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("## Policy files"):readme.index("## CLI")]
        pol = load_policy(section.split("```")[1])
        assert pol.soil_bank_path == "banks/soil"
        assert (pol.master_seed, len(pol.entries)) == (42, 6)

    def test_integer_key_is_cast_when_the_policy_compiles(self, random_image):
        as_float = Policy([PolicyEntry("random_erasing", 1.0, {"max_rects": 2.0})])
        as_int = Policy([PolicyEntry("random_erasing", 1.0, {"max_rects": 2})])
        got = apply_policy(random_image, as_float, RandomStream(11))
        assert np.array_equal(got, apply_policy(random_image, as_int, RandomStream(11)))
        assert P.compile_policy(as_float).entries[0].keywords["max_rects"] == 2

    def test_integral_float_for_integer_key_saves_as_an_integer(self):
        text = save_policy(Policy([PolicyEntry("random_erasing", 1.0, {"max_rects": 2.0})]))
        assert "max_rects=2\n" in text
        assert load_policy(text).entries[0].params == {"max_rects": 2}

    def test_non_integral_value_for_integer_key_rejected(self):
        pol = Policy([PolicyEntry("random_erasing", 1.0, {"max_rects": 2.5})])
        with pytest.raises(PolicyError, match="max_rects=2.5 is not an integer"):
            P.compile_policy(pol)


class TestSeedType:
    """A master seed is an integer, Python's or numpy's; a plan and the
    saved text hold it as a Python int."""

    @pytest.mark.parametrize("seed", [1.5, 2.0, "7", None], ids=["float", "integral-float",
                                                               "string", "none"])
    def test_non_integer_seed_rejected(self, seed):
        pol = Policy([PolicyEntry("mixing", 1.0)], master_seed=seed)
        with pytest.raises(PolicyError, match=f"seed {seed!r} is not an integer"):
            P.compile_policy(pol)
        with pytest.raises(PolicyError, match="seed"):
            save_policy(pol)

    def test_numpy_integer_seed_gives_the_views_of_its_int(self, plant_image, soil_bank):
        # drawn in Python int arithmetic: numpy scalar arithmetic would
        # overflow with a RuntimeWarning, an error here
        plan = P.compile_policy(default_policy(np.uint64(7)))
        assert type(plan.master_seed) is int and plan.master_seed == 7
        got = make_views(plant_image, default_policy(np.uint64(7)), 3, soil_bank=soil_bank)
        want = make_views(plant_image, default_policy(7), 3, soil_bank=soil_bank)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert save_policy(default_policy(np.uint64(7))) == save_policy(default_policy(7))

    def test_bool_seed_saves_as_an_integer(self):
        text = save_policy(Policy([PolicyEntry("mixing", 1.0)], master_seed=True))
        assert text.startswith("seed=1\n")
        assert load_policy(text).master_seed == 1
        seed = P.compile_policy(Policy([], master_seed=True)).master_seed
        assert type(seed) is int and seed == 1


class TestRuleParity:
    """A policy file and the same Policy built in code break each rule with
    one message; the file's names the line."""

    @pytest.mark.parametrize("text, policy, line", [
        ("sharpen 0.5", Policy([PolicyEntry("sharpen", 0.5)]), 2),
        ("mixing 1.5", Policy([PolicyEntry("mixing", 1.5)]), 2),
        ("mixing 0.5\nmixing 0.7",
         Policy([PolicyEntry("mixing", 0.5), PolicyEntry("mixing", 0.7)]), 3),
        ("gaussian_blur 1.0 radius=3", Policy([PolicyEntry("gaussian_blur", 1.0, {"radius": 3.0})]), 2),
        ("affine 1.0 scale_min=3", Policy([PolicyEntry("affine", 1.0, {"scale_min": 3.0})]), 2),
        ("theta=nan", Policy([], theta=float("nan")), 2),
        (f"seed={2 ** 64}", Policy([], master_seed=2 ** 64), 2),
    ], ids=["unknown-name", "probability", "duplicate", "unknown-key", "range-order",
            "theta", "seed"])
    def test_text_error_is_object_error_with_line(self, text, policy, line):
        with pytest.raises(PolicyError) as from_object:
            P.compile_policy(policy)
        with pytest.raises(PolicyError) as from_text:
            load_policy(f"# header\n{text}\n")
        assert str(from_text.value) == f"{from_object.value} (line {line})"


class TestRebinding:
    """Instrumentation that rebinds ``augment.<function>`` in its module,
    or replaces the values of ``policy._APPLIERS``, sees every fired entry:
    both are looked up at call time."""

    FUNCTIONS = ("sample_affine", "apply_affine", "sample_color_jitter", "color_jitter",
                 "gaussian_blur", "mixing", "random_erasing", "background_invariance")

    def test_every_fired_entry_is_intercepted(self, plant_image, soil_bank, monkeypatch):
        pol = Policy([PolicyEntry(name, 1.0) for name in AUGMENTATION_NAMES], master_seed=2)
        pol.entries[3].probability = 0.0  # mixing never fires
        reference = apply_policy(plant_image, pol, RandomStream(4), soil_bank=soil_bank)

        calls = []

        def counted(label, fn):
            def wrapper(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)
            return wrapper

        for name in self.FUNCTIONS:
            monkeypatch.setattr(au, name, counted(name, getattr(au, name)))
        for name, applier in list(P._APPLIERS.items()):
            monkeypatch.setitem(P._APPLIERS, name, counted(f"entry.{name}", applier))
        out = apply_policy(plant_image, pol, RandomStream(4), soil_bank=soil_bank)

        assert np.array_equal(out, reference)
        assert calls == [
            "entry.affine", "sample_affine", "apply_affine",
            "entry.color_jitter", "sample_color_jitter", "color_jitter",
            "entry.gaussian_blur", "gaussian_blur",
            "entry.random_erasing", "random_erasing",
            "entry.background_invariance", "background_invariance",
        ]


class TestPlan:
    def test_compiled_once_and_frozen(self):
        pol = default_policy(3)
        pol.entries[1].params = {"scale_min": 0.8}
        plan = P.compile_policy(pol)
        assert P.compile_policy(plan) is plan
        assert [(e.name, e.probability) for e in plan.entries] == [
            (e.name, e.probability) for e in pol.entries
        ]
        assert plan.entries[1].keywords["scale_range"] == (0.8, au.SCALE_RANGE[1])
        assert (plan.master_seed, plan.theta, plan.needs_bank) == (3, pol.theta, True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.theta = 1.0
        with pytest.raises(TypeError):
            plan.entries[1].keywords["scale_range"] = (1.0, 1.0)
        # later edits of the policy do not reach the plan
        pol.entries[1].params["scale_min"] = 1.5
        assert plan.entries[1].keywords["scale_range"] == (0.8, au.SCALE_RANGE[1])

    def test_invalid_policy_does_not_compile(self):
        pol = Policy([PolicyEntry("gaussian_blur", 1.0, {"sigma_min": 0.0})])
        with pytest.raises(PolicyError, match="sigma_min"):
            P.compile_policy(pol)

    def test_plan_and_policy_give_the_same_views(self, plant_image, soil_bank):
        pol = default_policy(3)
        plan = P.compile_policy(pol)
        for index in range(6):
            a = make_views(plant_image, pol, index, soil_bank=soil_bank)
            b = make_views(plant_image, plan, index, soil_bank=soil_bank)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_plan_pickles_with_its_bank_path_and_need(self):
        for pol in (load_policy(ORDERED_POLICY), Policy([PolicyEntry("mixing", 1.0)], 5)):
            plan = P.compile_policy(pol)
            copy = pickle.loads(pickle.dumps(plan))
            assert copy == plan
            assert (copy.soil_bank_path, copy.needs_bank) == (
                pol.soil_bank_path, any(e.name == "background_invariance" for e in pol.entries))

    def test_needs_bank_is_computed_not_given(self):
        assert P.Plan((), 0, 0.0, "bank").needs_bank is False
        with pytest.raises(TypeError):
            P.Plan((), 0, 0.0, "bank", needs_bank=True)


# overrides on several entries, mixing left to its defaults, theta and a bank path
ORDERED_POLICY = """seed=11
theta=0.25
soil_bank=bank
gaussian_blur 0.500 sigma_max=1.5
affine 0.250 rotation_max=0.5 scale_min=0.7
random_erasing 0.300 area_max=0.05 max_rects=2
color_jitter 0.900 hue_max=0.05
background_invariance 0.700
"""


def cell_plan(base: Policy, names) -> P.Plan:
    """The reference for ``ordered_plan``: a policy of ``names``, each always
    applied with the overrides ``base`` gives it, compiled."""
    by_name = {e.name: e for e in base.entries}
    entries = [PolicyEntry(n, 1.0, dict(by_name[n].params) if n in by_name else {})
               for n in names]
    return P.compile_policy(Policy(entries, base.master_seed, base.theta, base.soil_bank_path))


class TestOrderedPlan:
    def test_equals_the_policy_it_stands_for_in_every_sweep_order(self):
        pol = load_policy(ORDERED_POLICY)
        plan = P.compile_policy(pol)
        pairs = {(a,) if a == b else (a, b) for a in AUGMENTATION_NAMES for b in AUGMENTATION_NAMES}
        full = set(itertools.permutations(e.name for e in pol.entries[:3]))
        assert len(pairs) == 36 and len(full) == 6
        for names in pairs | full:
            assert P.ordered_plan(plan, names) == cell_plan(pol, names), names


def count_masks(monkeypatch) -> list:
    """Record every call of the full mask pipeline."""
    calls = []
    original = au.refined_vegetation_mask

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(au, "refined_vegetation_mask", counted)
    return calls


def view_by_view(img, pol, index, bank):
    """Each view through its own apply_policy call, masking on its own."""
    return [
        apply_policy(img, pol, RandomStream(derive_seed(pol.master_seed, 2 * index + k)),
                     soil_bank=bank)
        for k in (0, 1)
    ]


class TestSharedSourceMask:
    def test_one_mask_when_background_fires_first_on_both_views(
            self, plant_image, soil_bank, monkeypatch):
        pol = Policy([PolicyEntry("background_invariance", 1.0),
                      PolicyEntry("gaussian_blur", 1.0)], master_seed=5)
        masks = count_masks(monkeypatch)
        views = make_views(plant_image, pol, 0, soil_bank=soil_bank)
        assert len(masks) == 1
        # the shared mask equals each view's own mask
        for got, want in zip(views, view_by_view(plant_image, pol, 0, soil_bank)):
            assert np.array_equal(got, want)
        assert len(masks) == 3

    @pytest.mark.parametrize("fired, expected", [
        ((False, False), 1), ((True, False), 2), ((False, True), 2), ((True, True), 2),
    ])
    def test_a_view_changed_first_masks_its_own_image(
            self, plant_image, soil_bank, monkeypatch, fired, expected):
        pol = Policy([PolicyEntry("gaussian_blur", 0.5),
                      PolicyEntry("background_invariance", 1.0)], master_seed=5)

        def blur_fires(index):
            return tuple(RandomStream(derive_seed(5, 2 * index + k)).next_float64() < 0.5
                         for k in (0, 1))

        index = next(i for i in range(200) if blur_fires(i) == fired)
        masks = count_masks(monkeypatch)
        views = make_views(plant_image, pol, index, soil_bank=soil_bank)
        assert len(masks) == expected
        for got, want in zip(views, view_by_view(plant_image, pol, index, soil_bank)):
            assert np.array_equal(got, want)

    def test_no_mask_when_background_never_fires(self, plant_image, soil_bank, monkeypatch):
        pol = Policy([PolicyEntry("background_invariance", 0.0)], master_seed=5)
        masks = count_masks(monkeypatch)
        make_views(plant_image, pol, 0, soil_bank=soil_bank)
        assert masks == []

    def test_rebinding_sees_every_fired_view(self, plant_image, soil_bank, monkeypatch):
        pol = Policy([PolicyEntry("background_invariance", 1.0),
                      PolicyEntry("gaussian_blur", 1.0)], master_seed=2)
        reference = make_views(plant_image, pol, 4, soil_bank=soil_bank)
        calls = []

        def counted(label, fn):
            def wrapper(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("background_invariance", "gaussian_blur"):
            monkeypatch.setattr(au, name, counted(name, getattr(au, name)))
            monkeypatch.setitem(P._APPLIERS, name, counted(f"entry.{name}", P._APPLIERS[name]))
        views = make_views(plant_image, pol, 4, soil_bank=soil_bank)
        assert all(np.array_equal(a, b) for a, b in zip(views, reference))
        assert calls == ["entry.background_invariance", "background_invariance",
                         "entry.gaussian_blur", "gaussian_blur"] * 2
