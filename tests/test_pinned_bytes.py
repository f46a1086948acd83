"""Byte pins of the CLI's output.

Each case pins sha256 of stdout, sha256 of stderr and the exit code of
one `lacunary` call.  A change that alters any of them must update the
pin here and say why the output moved.
"""

import hashlib

import pytest

from lacunary.cli import main

# sha256 of no output at all
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

PINS = [
    (("witness", "--op", "sum"),
     "81f54791cb3c46860cd21951fd4baafa7f2a84cea5bbea97df4140f8a66b766a",
     EMPTY, 0),
    (("witness", "--op", "difference"),
     "eb4e0f61474e3c049fc702c66efd5f5262f39ca7bc70d1ce6bac522920c7f561",
     EMPTY, 0),
    (("witness", "--op", "product"),
     "263697a113d90979150a0e20f26f1e4ffc4888cc11691ddcf06f878b3fe0db1a",
     EMPTY, 0),
    (("witness", "--op", "quotient"),
     "868a6e69b183f397dec219422b10971321fc564adbc80d2f840bfa2c2aa4ddda",
     EMPTY, 0),
    (("witness", "--g1", "7", "--g2", "5", "--op", "product"),
     "6cd85ddff2d3990965f8ff28199cfa233a3fad0f0de1de8aaa9999fb6bb947fa",
     EMPTY, 0),
    (("witness", "--beta", "1/2", "--a1", "16"),
     "617c23bbc29f420464b7d2251de036508e394368678d490540e0ee8cb1f57070",
     EMPTY, 0),
    (("digits", "--digits", "2000", "--op", "sum"),
     "ab17ee91021d47882523684cd42c868e1acdd022e32650a35d75fb0d6c4221a4",
     EMPTY, 0),
    (("digits", "--digits", "2000", "--op", "difference"),
     "e219c88cb2e575c918aeaf72fc301a60aef986248e8e564624e93f61f04d7722",
     EMPTY, 0),
    (("digits", "--digits", "2000", "--op", "product"),
     "8000bdfbead71a99a8a97db8ac1903da51caba5ba6a51c8aefcd9c40fbea3471",
     EMPTY, 0),
    (("digits", "--digits", "2000", "--op", "quotient"),
     "bc2014397e52a9195c3c724c2fb36a4584903941dcf3594fbc7de9223f94bc13",
     EMPTY, 0),
    (("digits", "--digits", "27500", "--op", "difference"),
     "36613b3fb50278d4b72fe5129eddcc79c67b28e54408536b6b7752cc40e1a555",
     EMPTY, 0),
    (("digits", "--digits", "27500", "--op", "product"),
     "dc0377b6bac88e9daaa6fa68b98a04b72ea898c67ccc07dfd2ce19b58c2da20d",
     EMPTY, 0),
    (("digits", "--digits", "27500", "--op", "quotient"),
     "aa9e1349fdc42cc3ba83498c8204ffc5d705299f923736eae83b82bc56b15f49",
     EMPTY, 0),
    (("witness", "--g1", "7", "--g2", "5", "--op", "quotient"),
     "8ea1850658019067baaeb0f8d88bd64a09b4aabe7247a8e966e594bfc85a49ac",
     EMPTY, 0),
    (("witness", "--g1", "6", "--g2", "4", "--op", "quotient"),
     "718ba9fe4c9c3003a8ae5eec9d352992085b343ba182f0c614a9aaa9802c20e1",
     EMPTY, 0),
    (("witness", "--g1", "12", "--g2", "6", "--op", "product"),
     "5d0336b16164697c2ac5fb1e70797837f68f3e18b963bef872b57056732ef8ee",
     EMPTY, 0),
    (("witness", "--d", "7/2", "--op", "product"),
     "37e54e3c1afe00e0e17060bca114afbc9595adb9207590d9be1809c3e96ee8ad",
     EMPTY, 0),
    (("digits", "--g1", "6", "--g2", "4", "--op", "quotient", "--digits", "20000"),
     "60d01d739a89f9be9b9502b139f6507abedbf75c6ff033bc59ee62e43806ac49",
     EMPTY, 0),
    (("digits", "--budget-bits", "9", "--digits", "400"),
     EMPTY,
     "43b48182da55b1da5b8377c7451b0070dfb5c75c27f7a0e88071333949bd5048", 3),
    (("convergents", "--n-to", "5"),
     "7e602324e6a9779770c8175865f544f63aef9c53f1ac0ed92baa735f71039b2b",
     EMPTY, 0),
    (("measure", "--height", "3"),
     "84b8106fae93f1081ff957bbb4eec74a3a3d6ccfc668fd366f8da3453743a564",
     EMPTY, 0),
    (("validate", "--n-to", "3"),
     "95228e9b1b6dae2414b71c21eda3270680a419927c59d1b21d2d8f47b53d46cc",
     EMPTY, 0),
    # enclosures that stall at the schedule's end, so the tail is rounded
    # up: on an even base, on an odd base, and on a refusal
    (("digits", "--g1", "5", "--g2", "4", "--op", "sum", "--a1", "2", "--beta", "2",
      "--digits", "19"),
     "6c97fe1c3d84d284bc0b01cb5ece90eda8f7106aa43417cfb208c41cb1d9eca9",
     EMPTY, 0),
    (("digits", "--g1", "7", "--g2", "5", "--op", "quotient", "--a1", "2", "--beta", "2",
      "--digits", "70"),
     "93b0461c509af635ab2a9396b2e28286ff5841ec59043027f22f47f86ac0e19b",
     EMPTY, 0),
    (("digits", "--g1", "4", "--g2", "2", "--op", "quotient", "--budget-bits", "4",
      "--digits", "94"),
     EMPTY,
     "3f3802eb459654e5c1f7a1cb4103c67449d944914f9f4e3d481d731f1fb4c962", 3),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, stdout_sha, stderr_sha, code", PINS,
                         ids=[" ".join(p[0]) for p in PINS])
def test_output_bytes_are_pinned(capsys, argv, stdout_sha, stderr_sha, code):
    got = main(list(argv))
    out, err = capsys.readouterr()
    assert (sha256(out), sha256(err), got) == (stdout_sha, stderr_sha, code)


# sha256 of `lacunary [COMMAND] --help` at 80 columns: the flags are built
# from the RunConfig fields, and their listing must not drift.
HELP_PINS = [
    ((), "444a114813c0d2a991d54dec310adc4ca4411b802c5520cc9f23d58652924110"),
    (("digits",), "428b598219e4e0d1affb927d2ff0f49768955923b0cc23dcb1c2b8c74c826085"),
    (("convergents",), "b7a30da03fbea13e47775162a01c5b512e2cdf5d7668d2b050de44dcf933f0b1"),
    (("witness",), "bc19c7e352f975210369c1eeec9b81af68e59fdf29a89e51dc2bdafd465d20ea"),
    (("measure",), "bb96be350a72d54cd80aefc23efa2c90ba402b5d647405aab70b1b886937cfe7"),
    (("validate",), "916d83f03621c80e8f7a5effe05ef568e145cbdcba570a24024f5646fc59a069"),
]


@pytest.mark.parametrize("command, stdout_sha", HELP_PINS,
                         ids=[" ".join(p[0]) or "top" for p in HELP_PINS])
def test_help_bytes_are_pinned(monkeypatch, capsys, command, stdout_sha):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([*command, "--help"])
    out, err = capsys.readouterr()
    assert (sha256(out), err, info.value.code) == (stdout_sha, "", 0)
