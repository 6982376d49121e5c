"""The JSON the CLI prints for `group`, `chartab` and `quiver`, pinned by
sha256 on every small spec and on four specs with 30 to 60 classes, and
the `strata` stdout of three listings, and the root systems of A~59, D~59
and the three E types.  Any change to elements, their order, the
classes, the character values, the quiver, the labels and their order
or the roots and their order changes a digest."""

import hashlib
import json

import pytest

from mckay.cli import run
from mckay.quiver import reference_finite
from mckay.roots import positive_roots

from conftest import pipeline

# spec: sha256 of the `group`, `chartab` and `quiver` stdout
DIGESTS = {
    "cyclic:2": (
        "97848b2d05b0ce25bf316ff7beb33f994303b786a92272bcfce765c4087356ee",
        "fc2bb7b65ea757edab0d5422cd3944fccf6a46e019bf9c75f409eabafb7b3c5b",
        "7b817783ef9cdcc8a2568c0238ad00f223ddb4d0b0d0e01ce02426394e30ef4c"),
    "cyclic:3": (
        "ad39df6eb0755fac0a6ef0e64ec079e8eb59b394be94c29318c66e79cff1e49f",
        "b7579f4a8d8bd14f77d24399ad1532b9cba6884192a049b1a4e8f8754e567495",
        "b3d1f629748523135974017a2485f0f7297d6b56a5f54d944cb3c829f015d46c"),
    "cyclic:4": (
        "ee14ded37d4f94c31eb7163ec39c33ac249a518b351ccaee09229a5684f5430f",
        "5e0c3216f7b73e0ef7d86abdcb62c92e5ed690bcf436dd93dbc18a52a20974b0",
        "786cbe87c2d7b16a462a4b91b72b4cc9856429401eaa1258c0a53ad4aa53e5fe"),
    "cyclic:5": (
        "2c61e10f50733f3de7dcb897d15529aff65ab0633c501d9594941402e24ebbb7",
        "fdc1f71e48639e5a2c4a96ad9b2256d77a8b04efb9965ce8a7456eefe72a7a2b",
        "e51caeecc1e6a56df370bcaf49dec234911919cdee651f9e2ecf481d7db24402"),
    "cyclic:6": (
        "cb5b75ae5c6415b7836170498ad5ba7af2b7c8c254bde9c74809f1d400433abd",
        "ae69cf7ce01cddf0f9e8db89d7259bfa7da792b94782bfdfc12277e3bd5b68e3",
        "886566aeb4e7ac6be55c067ac33e1781d9a73e63cc16c52d834cfc170d0d1ec9"),
    "cyclic:7": (
        "dd17e77326ac9646eabdd06e466a0ca0424f6486c24520b18359bd9cbab27599",
        "6d60260c95396b4a9b98baca35c71f2cd1d0dc7531cdf0b3f85713f0914f4b4d",
        "25b4253b0ecd8a29e9fe381826ae5d41f9dca3367afe316f374a3ec86df8c339"),
    "cyclic:8": (
        "dfc4c9fd5c4d9835d6c52e0d0ce2d2c42e6a960e5e5380c16f469d4e721de4cb",
        "e92002127ed97e46150d46f31820e3b806e1465f999cd777e9d7935296537715",
        "ded2a3225539b59f484d180b224a1f24242a60dcea9547a830aa4e306cc22bc0"),
    "cyclic:9": (
        "5120f9595189809c6ca81069eae99e314d45d254509a0c9fcb524d7128e9b7d6",
        "1bd1a00ba9e16fae8ae78fd5529c3243ec6be90bb3c391b991cbf68a5f5676ae",
        "df0d930f4eb25e4a3549aa21eb2cc1fe2d9c24e3446e86c6aa7f42b969cba741"),
    "cyclic:10": (
        "6871cef5fd057f200e65f52bd3eea2a09890ecf6ef5897538b2bf4f0d45f5436",
        "b3559b57ede1ea2a396075cb7dde3118c3cdf16f35a2498eb53204d35d0f7c8b",
        "95e3015863c72b40ab9c59623d71ac3b9dc902f0503856777fa1d8675b2ff7c9"),
    "cyclic:11": (
        "d72f4eedcc50c53b5fed6e13bb09a372b294737fb57e2d686051549048aa608b",
        "53d0f29d33e2f97165fe6edb27196e66c69f26aa2b4709bcf94b22f8ec8761e8",
        "710c70ec5c4a0b78be79604c0460f6fd60a452fd7af82bacf4daaa4576548679"),
    "cyclic:12": (
        "2023466bb063f5dca9b50e51d091b966f8f6fff85516419d7301370311d6f236",
        "45426c99dc50dc2bf7c1ad3e347554c710382d81cdc2e8c2088bc921ae40c375",
        "552db2e7fff540ad56f5dc694eccd1eb84bf664881319f179e3ee32562dc69a8"),
    # the seeded split retries twice on cyclic:16 and binary-dihedral:10
    "cyclic:16": (
        "08bdf300e7b6e16a16bc256ccc6f48e23ebeda186278ae846ca2c500817e16bd",
        "6dda22b8789235b2045f736688687025b423da2c9650f656a42edfb26b43efbf",
        "b7b5865052b6ae53ba6d3b71548627db64f9a8e145e134b3171768518ad8efb9"),
    "binary-dihedral:2": (
        "6da442469a1bdf200524a831e98d7a158498a9f81a71977e5eabbf7616e01b3e",
        "dbdc3f7769f37a5a1131d2e5d67fb24d8df68b24d8505d23761db040cd5e4edc",
        "8f63b9fbed7e30a6034e07a519ac9bb0edf1287a2b8e09ea9f07f9f33d9677e0"),
    "binary-dihedral:3": (
        "4bea4f68224780e860e37c2d6b4dc8a1846a4346cc4ada05423de7ffeb69249f",
        "25815e9fa28f9bbeee4deaa2a5801f5510eef61532712df8af82d21738d46762",
        "83f0d96b05b04b606215acb90f752952738c7fc8f505057f7fd6831832c513f2"),
    "binary-dihedral:4": (
        "3aa166b85f56663c7ce063d752cbe4933381bab493c78082ee32ac310ff1d736",
        "c4c0b7a1f33b1f901add5f7943b77e384021a265d266cc9408885780d0c1ebbf",
        "31cda8b97d5ea4193d977296d50080b207dea04fb2f7635b9535a96c5a109408"),
    "binary-dihedral:5": (
        "fb61ccd8d90637834e556406692324c74ce96e501671dee9cc6c2a2973a231fd",
        "9cb942e6ddcbfcddb10521eedbf67e540cdf3ada0d61c8c448cbca3f7e544937",
        "543f864da4733c96f9b048a40139187cc38748ad3bc151a9c12e12267c2bafbc"),
    "binary-dihedral:6": (
        "1055317827858873576ab6e375f327387a4e8a2dda06cf623029ca3929af1441",
        "76f4740168af4bb76b94eef89471118685e7b982fa6a890168f5e6975064454c",
        "ddde1f89ebd0016e745d23ec982c4eb2e38cb15e771e64bd366520d0e94ec8c9"),
    "binary-dihedral:7": (
        "4e61d1a64c84b942389ff165c003e37c7eac439f5e77a698c919ea12a899726b",
        "3d5215ff323f187efa2538505b9c7155965599d26548928928bdad6bdd927f49",
        "889779bd52bf96ceb6fd6db7b7d56b94a2237cba5fb6446b2610d2bcd2e1cbfe"),
    "binary-dihedral:8": (
        "d338fecafacb75d0f1e2d78d0018a32d47d7ab47c81fac4ab0f9853a3696161f",
        "141e07e37d2350543a469ba9797d4d4457596660522c6ded6e93b04e067f27e3",
        "35d4749919de149696814193b5831810fc7da7e996b6fb286cfd4289f1d1578b"),
    "binary-dihedral:10": (
        "654cd0b4a5dcc1829c3cf9ea40f401de46f6bb35df1c8adc924585a692a55d1f",
        "adeb7df7c969bb5a69ee7438a1e4f27ad52f13c37ac8d9d1665a8caa53ccdeee",
        "acfb7d25a7952d532542219ca25adcd60f761adbbd0544d2f81f44bca9f3958e"),
    "binary-tetrahedral": (
        "622a0e48e6769fe2633c98bb360948f1ecba544f742e92b23233673bccd62d4e",
        "d97efa60559fe9dd441c2dcca3184b7adfd2274340b004cfcdbdd716b5f58efb",
        "858c88158b4affde4f94c38e1fabb5ab7787188f4f4cd7f1673149fdb3412a1b"),
    "binary-octahedral": (
        "bd3737b4dd02ffdea70ade9222cb3e7cccd8537d0eaf08e02b980d749237ca73",
        "62e1ce10ea60308e7292eef0c6699ec70daeb50485ae46af7c2cf80c2467a0ed",
        "95dda9b2a6d81f954c91064b6df8c21c0fbd16f5d6f3381868cda63cf748eb72"),
    "binary-icosahedral": (
        "a4848036d71bf0d01985c12bcfc58ac15babd2958f854fe55429b1ae0e40b5c0",
        "e448e11882748fadf489e9537b7ab8d5a17c86223e6188440aa56d8adf27e998",
        "652aa0ea210385da41cda1b085c412014049e570d8a5b2eacc2dc61bb0358f71"),
}

# spec: sha256 of the `chartab` and `quiver` stdout, at r = 30 to 60
SCALE_DIGESTS = {
    "cyclic:30": (
        "f92a462a1ceb6a5d0ba404c159a0b3659dde1a9fe52ddfdf6ab4f946a64e1922",
        "d4e51596ba6a5cdc7023baacbbbb190fece30c3ac8129e8e30207811bf1c938e"),
    "cyclic:60": (
        "3efaf3be42ca133f462ca11e9ebee66da68ba39b0d72960ce60d0a03c24ab2bc",
        "b0dc7d1c51e47c8dd9ba0cf0812595e4b75bd796d5c92966b2a16e6443262c45"),
    "binary-dihedral:30": (
        "841ff0b0e9128375ec280b94515015a1634b9d609b20ba79974f64fcacc25502",
        "96c96ca3801e08be16da73bf85821c31a67ac0d715047eeaaa266c8c78ee3c96"),
    "binary-dihedral:57": (
        "21820f35383203622acc28bfb62b7f7535340b2d0b74f7e21ef50d057225021b",
        "be16dfa0e5998b3f5c2d8df32925fdd25dfae47bb4b33aa2a41b5dc4ee2b37c6"),
}

# spec: sha256 of the `group` stdout, at r = 30 to 60
SCALE_GROUP_DIGESTS = {
    "cyclic:30": "592bb1c510b5bb4e7121864e3c0dbd4875834fbf2fa4075a7b06f7333dabaa37",
    "cyclic:60": "79593aaf48b48eb124a2b2f98a7f6f9d8dd9854e927b46de49b5e5d922781777",
    "binary-dihedral:30": "e243098ccb36419ebebc1bdff169757370b03293248c35a9e4742dd4dd754c1f",
    "binary-dihedral:57": "ee66547bf1304f68444c65231b27f1e377adc36cee2dc38abbbd57ccd87a7365",
}


@pytest.mark.parametrize("spec", DIGESTS)
def test_group_chartab_and_quiver_json_are_pinned(spec):
    digests = tuple(hashlib.sha256((json.dumps(obj.to_json_obj(), indent=2)
                                    + "\n").encode()).hexdigest()
                    for obj in pipeline(spec))
    assert digests == DIGESTS[spec]


@pytest.mark.parametrize("spec", SCALE_DIGESTS)
def test_chartab_and_quiver_json_are_pinned_at_scale(spec):
    _, table, cartan = pipeline(spec)
    digests = tuple(hashlib.sha256((json.dumps(obj.to_json_obj(), indent=2)
                                    + "\n").encode()).hexdigest()
                    for obj in (table, cartan))
    assert digests == SCALE_DIGESTS[spec]


@pytest.mark.parametrize("spec", SCALE_GROUP_DIGESTS)
def test_group_json_is_pinned_at_scale(spec):
    group, _, _ = pipeline(spec)
    text = json.dumps(group.to_json_obj(), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SCALE_GROUP_DIGESTS[spec]


# `strata` arguments: sha256 of its stdout
STRATA_DIGESTS = {
    # rank one, 28629 labels
    "cyclic:2 --n 60":
        "3ec19e63b9c5c8e6882ddb88c5952d8470a78e6a3a585940a0c2cc3d6b8469fd",
    # 19246 labels
    "cyclic:2 --n 40 --w 2,1":
        "55a662715598198ca11f3a68591e651b5fd3bdb693d9c29ea398abd241a967c8",
    # 376 labels over 132 v0, 124 of them sharing sum(v0_i delta_i) with another
    "binary-dihedral:2 --n 30 --w 1,1,1,1,1":
        "5e9a5d3fa4cc51b42db04f515991a10e8633e6902adb2b6f1aa7ae39af2207d0",
}


@pytest.mark.parametrize("args", STRATA_DIGESTS)
def test_strata_stdout_is_pinned(args, capsys):
    assert run(["strata", *args.split(), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STRATA_DIGESTS[args]


# type: sha256 of RootSystem.to_json_obj() for its reference finite matrix
ROOT_DIGESTS = {
    "A~59": "f3a935c22b4a4b27f7185e76866d1e219d47b59da1c36320a8f5aa10a4710670",
    "D~59": "a690689119b301c660397a8b73a798f9de84cba73f65e68cda3c7a0d6d98e05a",
    "E~6": "a48911a9ed273ef592900925d657ce8dc07f0a9b6297a03fbf241b660f4be86f",
    "E~7": "0376796576815e51b75a4e3542dfc0f542b59e16f9aef9cf0e6c1ea2b2b8f9b9",
    "E~8": "5a53ca3ad55fdd2bb174c84696fa6d8ab9043b9bd1abd4a2debae88a1c2d591c",
}


@pytest.mark.parametrize("ade", ROOT_DIGESTS)
def test_root_system_json_is_pinned(ade):
    obj = positive_roots(reference_finite(ade)).to_json_obj()
    text = json.dumps(obj, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ROOT_DIGESTS[ade]
