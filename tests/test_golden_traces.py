"""Golden trace digests: the sha256 of the emitted trace bytes of every model.

Each case runs one seeded tuning run through ``execute_run`` and hashes the
CSV that ``emit_trace`` writes. A change that alters any proposal, any
selection tie or any written digit moves a digest. The pins may change only
together with a stated reason for the behaviour change.

The direction cases replay four models on the table with the target, the
auxiliary or both maximized.

The non-default cases call the optimizers directly, with the default
population or a tiny one that ``execute_run`` is never given, on a 6-bit space
that the budget exhausts and on a 10-bit space.

The restart counts of the hill-climbing runs are pinned too: they are not in
the trace bytes.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from mmo_tune.harness import derive_seed, emit_trace, execute_run, weight_token
from mmo_tune.measurement import (
    SyntheticOracle,
    load_table,
)
from mmo_tune.models import PMO, MmoInstance
from mmo_tune.optimizers import (
    OptimizerConfig,
    run_nsga2,
    run_rs,
    run_sa,
    run_shc_restart,
    run_soga,
)
from mmo_tune.space import OptionSpace, OptionSpec

from conftest import make_binary_space, write_table

MODELS = (
    ("single:rs", None),
    ("single:shc-r", None),
    ("single:sa", None),
    ("single:soga", None),
    ("pmo", None),
    *(
        (f"mmo:{shape}", weight)
        for shape in ("linear", "sqrt", "square")
        for weight in (0.1, 10.0)
    ),
)

# (budget, population) per landscape.
SCALE = {"synth-a": (400, 20), "synth-b": (400, 20), "table": (80, 10)}

GOLDEN = {
    "synth-a/single:rs/-": "8831ff4dcf176ed5e09740794cc0c117c1ea543c76672f040f44612fafc3fb6f",
    "synth-a/single:shc-r/-": "c9b3ee5bccd3c0b852d1b5c3b2d769430b5d6c7696fc620b1886058e26baf3f7",
    "synth-a/single:sa/-": "77fd436f264d0697caae865faea089fb12a84a241a3d7431bb81b7129d5e9d3c",
    "synth-a/single:soga/-": "3426ea227413e764198d35f55844b0e5fdd4d6fffda25187faf4344fa60d3b26",
    "synth-a/pmo/-": "d3a12ec3c11bf3c6a2226d259286ad467b30c0a2f56508c631c629dab8054d9d",
    "synth-a/mmo:linear/0.1": "678cdb45383822d600f5c19e6d069b6aff01699bc7e7d9a7971e82d46cb168f9",
    "synth-a/mmo:linear/10.0": "d5ff2b2e2b67b9c2b296336cbb50064042d525f476486a1b4232d95555b5d8a4",
    "synth-a/mmo:sqrt/0.1": "40f839de78db05c1c234a3348f76a20f9cdfe00308cc44c2e9c5e2008ea4476c",
    "synth-a/mmo:sqrt/10.0": "a1cf55b8d1958b25d9d677d697289788026962c2f2c1058d6e45c305a0d7e9c0",
    "synth-a/mmo:square/0.1": "9679529ad92d7426a9698f4c3103aad2d5917d803fc6a498913ca463a8abbf8b",
    "synth-a/mmo:square/10.0": "9004ed07265f8e8e3b4d9b23f8b997a99e9e8c4d619e8e95be573898a4bde871",
    "synth-b/single:rs/-": "3db80ebbfce0e27b2e034a60cbdac25689534591d30027026ecc05b5e9421e23",
    "synth-b/single:shc-r/-": "768ceb1d12272f4220dbdc996f694f7ee97f02f40c94f436320178551012d172",
    "synth-b/single:sa/-": "c565e98e0679f3e802ad0105039a0a707cf7a3b93b4c1054a877c65a8bf7f83a",
    "synth-b/single:soga/-": "90ea0fdae4b8459b09820fb17fb1be70a9617cb580730f844a408d7073f72587",
    "synth-b/pmo/-": "ea186111100b830e1ceff18e6fb5e3e19288efff32eafef1577ad0f7b7bb12bc",
    "synth-b/mmo:linear/0.1": "f93e656d5a20443dea5537816f63c97a5b82adb78faa7d81f446f0e384115509",
    "synth-b/mmo:linear/10.0": "fe35992da2c13b8e9d1f4df84c2309d399f586fe4caaa575f0a8f992152a306d",
    "synth-b/mmo:sqrt/0.1": "c2b97d96da5c082fb3099237f7a0359f5423a6c2517de22411d922081b79af4c",
    "synth-b/mmo:sqrt/10.0": "f7029db13ba17d583bcb3c013f54499e6924d43c31618b3bbfc89038ffbad7a0",
    "synth-b/mmo:square/0.1": "68a2cbaf338e714e37a770c0363e862033daf263b093c9719bea07f7a6b73118",
    "synth-b/mmo:square/10.0": "f5658ba87ae6c4a615d85eaa220ea54e051729038d5da29d3d53898da2d9eab3",
    "table/single:rs/-": "376d8abec3104462f4026f45358003ee7096a0cc314b360c9073c1346f13cf9d",
    "table/single:shc-r/-": "170d649ed07710ac62a6399e4efaf387ce0193e025655077725aae1052dc235b",
    "table/single:sa/-": "5fcfd74a9a19f098c7487758efa33ca1d7b25e768851235ad090f4eeb69db210",
    "table/single:soga/-": "4f136e0fdde364afaf0cdeb65d8b54cb4efbc82d83c900b04bc4bf3a843e7457",
    "table/pmo/-": "1f692db4c9937dc5ad1ba34b76298050df9b6c633db5011a44dbbff6a99c65dd",
    "table/mmo:linear/0.1": "07ebb95c9b945c5bd29c203692404caf62caefce0c4078004b1932715c24cbd8",
    "table/mmo:linear/10.0": "27248d6569dc3b8cd3b5ee70e2c6470ad554cc285cfb75b1933f6adaa81aac20",
    "table/mmo:sqrt/0.1": "6e6f3e9e171553dd2bee575de9005fc1d3a9fabf517905c58888132c92d4b101",
    "table/mmo:sqrt/10.0": "5e0ca9206e34b8853e31797aa73eafaee39771f436d47c9977ff0738bed67a38",
    "table/mmo:square/0.1": "77a1807d246b51d3a7dfe85255c3f644ff8c43a9c93698f13be2954422f28184",
    "table/mmo:square/10.0": "8e50d98df5fae2f4cc35f44f4d73cf44b60b7be4496032123383890dcef1a548",
}

# Restart counts of the same runs; every other case restarts 0 times.
GOLDEN_RESTARTS = {
    "synth-a/single:shc-r/-": 19,
    "synth-b/single:shc-r/-": 21,
    "table/single:shc-r/-": 12,
}


def _table_space() -> OptionSpace:
    return OptionSpace(
        (
            OptionSpec("a", "integer", 1, 4),
            OptionSpec("b", "integer", 0, 2),
            *(OptionSpec(f"c{i}", "binary", 0, 1) for i in range(4)),
        )
    )


@pytest.fixture(scope="module")
def landscapes(tmp_path_factory):
    space12 = make_binary_space(12)
    synth_a = SyntheticOracle(space12, seed=101, ruggedness=0.35, correlation=0.3)
    synth_b = SyntheticOracle(
        space12, seed=7, density=0.1, ruggedness=0.6, correlation=-0.5
    )
    space = _table_space()
    rng = random.Random(11)
    rows = {
        config: (
            sum(config) + rng.random(),
            rng.choice((0.5, 1.0, 1.5)) * config[0] + rng.random(),
        )
        for config in space.enumerate_all()
    }
    path = write_table(tmp_path_factory.mktemp("golden") / "table.csv", space, rows)
    return {
        "synth-a": (space12, synth_a),
        "synth-b": (space12, synth_b),
        "table": (space, load_table(path, space=space)),
    }


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_digest(case, landscapes, tmp_path):
    name, model, token = case.split("/")
    weight = None if token == "-" else float(token)
    space, oracle = landscapes[name]
    budget, population = SCALE[name]
    seed = derive_seed(2024, name, model, weight_token(weight))
    trace = execute_run(space, oracle, budget, population, model, weight, seed)
    path = tmp_path / "trace.csv"
    emit_trace(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[case]
    assert trace.restarts == GOLDEN_RESTARTS.get(case, 0)


# (target, auxiliary) directions per direction case name.
DIRECTIONS = {
    "max-min": ("maximize", "minimize"),
    "min-max": ("minimize", "maximize"),
    "max-max": ("maximize", "maximize"),
}

DIRECTION_MODELS = (("single:sa", None), ("single:soga", None), ("pmo", None), ("mmo:linear", 0.5))

GOLDEN_DIRECTIONS = {
    "max-min/single:sa/-": "578ad5c8cbe17685eb84971d90a73dc675bb02b459a3b68fcb572e158c49fc22",
    "max-min/single:soga/-": "3f9755c11e9f9c54e89040030601cae8c5abfaca49452dd6e3270f87a0d09dcb",
    "max-min/pmo/-": "4354266a9962dd41ae4a17c423020359f269442e641bc01adf3411791b10948f",
    "max-min/mmo:linear/0.5": "8cbe8cb98af6ab255cb02c58cbe4e4fe1664af54ac3a3671e08654ea7310c5e5",
    "min-max/single:sa/-": "5fcfd74a9a19f098c7487758efa33ca1d7b25e768851235ad090f4eeb69db210",
    "min-max/single:soga/-": "4f136e0fdde364afaf0cdeb65d8b54cb4efbc82d83c900b04bc4bf3a843e7457",
    "min-max/pmo/-": "884cd225b17a6124fef953064f0aa196953bf0cf53285b66ce593d195693f553",
    "min-max/mmo:linear/0.5": "b6dcbae2c7d62b08156281eb048e361d1c4555c1a9e76fa0eca9397623cca8b7",
    "max-max/single:sa/-": "578ad5c8cbe17685eb84971d90a73dc675bb02b459a3b68fcb572e158c49fc22",
    "max-max/single:soga/-": "3f9755c11e9f9c54e89040030601cae8c5abfaca49452dd6e3270f87a0d09dcb",
    "max-max/pmo/-": "a0353fd31ede594afa4a3a2bf770b3656540c19c89ca72279e01297602e611b9",
    "max-max/mmo:linear/0.5": "8cbe8cb98af6ab255cb02c58cbe4e4fe1664af54ac3a3671e08654ea7310c5e5",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DIRECTIONS))
def test_direction_trace_digest(case, landscapes, tmp_path):
    name, model, token = case.split("/")
    weight = None if token == "-" else float(token)
    space, oracle = landscapes["table"]
    budget, population = SCALE["table"]
    seed = derive_seed(2024, "table", model, weight_token(weight))
    trace = execute_run(
        space, oracle, budget, population, model, weight, seed, DIRECTIONS[name]
    )
    path = tmp_path / "trace.csv"
    emit_trace(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DIRECTIONS[case]


def test_direction_cases_cover_every_pair():
    expected = {
        f"{name}/{model}/{weight_token(weight)}"
        for name in DIRECTIONS
        for model, weight in DIRECTION_MODELS
    }
    assert set(GOLDEN_DIRECTIONS) == expected


def test_cases_cover_every_model():
    expected = {
        f"{name}/{model}/{weight_token(weight)}"
        for name in SCALE
        for model, weight in MODELS
    }
    assert set(GOLDEN) == expected


# name -> (optimizer, meta model or None, population size).
NON_DEFAULT = {
    "rs": (run_rs, None, 20),
    "shc-r": (run_shc_restart, None, 20),
    "sa": (run_sa, None, 20),
    "sa-pop4": (run_sa, None, 4),
    "soga": (run_soga, None, 20),
    "soga-pop3": (run_soga, None, 3),
    "pmo": (run_nsga2, PMO, 20),
    "pmo-pop3": (run_nsga2, PMO, 3),
    "mmo-linear": (run_nsga2, MmoInstance("linear", 0.5), 20),
    "mmo-square-pop5": (run_nsga2, MmoInstance("square", 10.0), 5),
}

# Seeds drawn under the label of an earlier case: the radius-3 random search
# (3 is the default radius on 6 options, so bits6/rs keeps its digest) and the
# hill climber that restarted after 2 rejections.
SEED_LABELS = {"rs": "rs-radius3", "shc-r": "shc-stall2"}

# (option count, budget) per space; 6 bits are 64 configurations, fewer than the budget.
NON_DEFAULT_SCALE = {"bits6": (6, 100), "bits10": (10, 300)}

GOLDEN_NON_DEFAULT = {
    "bits10/mmo-linear": "60c75fe8bb42961a7221bc6306191ecfe2e4403b85526b9c9ad000a63ec1eaf8",
    "bits10/mmo-square-pop5": "9f964e810fd0d5790a8e892bf80590573bb847c9fa8f921e2d8463e35dfede20",
    "bits10/pmo": "2c4fe391a28d6bef36e6f51d7519d73b167b6beb3226f4bf62365f01304e23b3",
    "bits10/pmo-pop3": "5be28a38de99b3d3aab6873f586e8f35b826b66f86d6a19005aa68480d08dbff",
    "bits10/rs": "c60dfcf7836069d0e8e5b8c8064ace28320832dcfe75b4405cd3ce41ee51635c",
    "bits10/sa": "9555504dd53a746be28af30ac39f9a74ff8183215390839ff11971d8b86f802b",
    "bits10/sa-pop4": "233f2be3d6fac7601712595a850de4f51f5ae906debaf60560341ea4f88b2df6",
    "bits10/shc-r": "2cf0bbe6056f3fc2a946dda05cd605071253cf714ffddef87ef055eef5cef0b3",
    "bits10/soga": "8476df9c7316dbf837853337dd86cd99cd58bb13d9af32464dfc21a2f3ed587e",
    "bits10/soga-pop3": "73416d2e80f6b44c118abe36f64a7298756b0fccaee47c971ee79323bed59e4d",
    "bits6/mmo-linear": "a2bed4e0795fa0d6c16998dfd9dfb650d5905114131f2a9b07eb0fd2f749703f",
    "bits6/mmo-square-pop5": "9c76d8c83501a11afda56d671651c6bf3d48038789aea02c0cc2c3760bc0fe83",
    "bits6/pmo": "a1508cf90a65d9efca5734bc407e547222d37c556fca5eb2607ce515c5dfeb84",
    "bits6/pmo-pop3": "5eaadd48c05d01ad1e16fd7693242735a64cef4744b6de7cd97f763314ff4c90",
    "bits6/rs": "d5417f32f10e92abce70dddff1545e0a1f230bd94b2745501ef9dd5fb4f313de",
    "bits6/sa": "24b6ba676c5750746f2570a5bdd12891148ea337dbf9602e5ca28d1786f8b1e5",
    "bits6/sa-pop4": "2623ee9defd71e1a32d7b31ff65d55b498bc00d6f5cb4c9a570f044313541089",
    "bits6/shc-r": "78d53cec965cef992ac707cdc27a0bc4a19df70ca7a37ce19d38ba452e80cb93",
    "bits6/soga": "0fc66d79ae1ae93aa67cbd79ad133f330742d23a672ee65ef22bb41bf8272d8a",
    "bits6/soga-pop3": "f218460afa509ba46793dc922b1f618d9769b50bd03eba881d27edc2f59c6fa3",
}

# Restart counts of the same runs; every other case restarts 0 times.
RESTARTS = {"bits6/shc-r": 20, "bits10/shc-r": 24}


@pytest.mark.parametrize("case", sorted(GOLDEN_NON_DEFAULT))
def test_non_default_trace_digest(case, tmp_path):
    scale, name = case.split("/")
    bits, budget = NON_DEFAULT_SCALE[scale]
    optimizer, model, population = NON_DEFAULT[name]
    space = make_binary_space(bits)
    oracle = SyntheticOracle(space, seed=bits, ruggedness=0.5, correlation=0.2)
    seed = derive_seed(2024, scale, SEED_LABELS.get(name, name))
    cfg = OptimizerConfig(population_size=population, seed=seed)
    if model is None:
        trace = optimizer(space, budget, oracle, cfg)
    else:
        trace = optimizer(space, budget, oracle, model, cfg)
    path = tmp_path / "trace.csv"
    emit_trace(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_NON_DEFAULT[case]
    assert trace.restarts == RESTARTS.get(case, 0)


def test_non_default_cases_cover_every_variant():
    expected = {f"{scale}/{name}" for scale in NON_DEFAULT_SCALE for name in NON_DEFAULT}
    assert set(GOLDEN_NON_DEFAULT) == expected
